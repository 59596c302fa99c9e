package bench

import (
	"fmt"
	"time"

	"aitax/internal/models"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msf(d time.Duration) string { return fmt.Sprintf("%.2f", ms(d)) }

// variantName labels a (model, dtype) pair the way the paper's figures
// do ("MobileNet 1.0 v1-int8").
func variantName(m *models.Model, dt tensor.DType) string {
	if dt == tensor.Float32 {
		return m.Name + "-fp32"
	}
	return m.Name + "-int8"
}

// variant is a (model, dtype) pair of the latency figures.
type variant struct {
	M  *models.Model
	DT tensor.DType
}

// figureModels returns the variants the latency figures sweep: every
// Table-I model in each precision it supports on the given path.
func figureModels(nnapiPath bool) []variant {
	var out []variant
	for _, m := range models.All() {
		for _, dt := range []tensor.DType{tensor.Float32, tensor.UInt8} {
			if m.Support.Supports(nnapiPath, dt) {
				out = append(out, variant{m, dt})
			}
		}
	}
	return out
}

// stack is the fresh stack of an experiment that builds its own: the
// one Run.Stack builds for cfg's platform and seed. It injects no
// faults, so it cannot fail.
func (cfg Config) stack() *tflite.Runtime {
	r := Run{Platform: cfg.Platform.Name, Seed: cfg.Seed}
	rt, _ := r.Stack(r.platform(cfg.Platform))
	return rt
}

// warmRun runs exec twice back to back on rt, drains the engine and
// returns the second run's report and virtual duration: the warm run,
// after the first has paid the cold costs (session setup, plan
// compilation, cache fill).
func warmRun[R any](rt *tflite.Runtime, exec func(done func(R))) (warm R, d time.Duration) {
	exec(func(R) {
		start := rt.Eng.Now()
		exec(func(rep R) { warm, d = rep, rt.Eng.Now().Sub(start) })
	})
	rt.Eng.Run()
	return warm, d
}
