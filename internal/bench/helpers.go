package bench

import (
	"context"
	"fmt"
	"time"

	"aitax/internal/app"
	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/soc"
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

// figureModels returns the (model, dtype) variants the latency figures
// sweep: every Table-I model in each precision it supports on the given
// path.
func figureModels(nnapiPath bool) []struct {
	M  *models.Model
	DT tensor.DType
} {
	var out []struct {
		M  *models.Model
		DT tensor.DType
	}
	for _, m := range models.All() {
		for _, dt := range []tensor.DType{tensor.Float32, tensor.UInt8} {
			if m.Support.Supports(nnapiPath, dt) {
				out = append(out, struct {
					M  *models.Model
					DT tensor.DType
				}{m, dt})
			}
		}
	}
	return out
}

// benchToolRun executes the TFLite benchmark utility (or its app
// wrapper) for n measured runs and returns the samples. Experiments
// measure under context.Background(): a run always completes, and it
// reports no simulated time to the lab job it runs in.
func benchToolRun(platform *soc.SoC, seed uint64, m *models.Model, dt tensor.DType,
	delegate tflite.Delegate, threads, n int, appWrapper bool) ([]core.StageTimes, error) {

	rt := tflite.NewStack(clonePlatform(platform), seed)
	ip, err := rt.NewInterpreter(m, dt, tflite.Options{Delegate: delegate, Threads: threads})
	if err != nil {
		return nil, err
	}
	bt := tflite.NewBenchTool(rt, ip)
	bt.AppWrapper = appWrapper
	return bt.Measure(context.Background(), n)
}

// warmupFrames are the cold-start app frames every experiment discards
// (plan compilation, cache fill).
const warmupFrames = 2

// appRun executes the instrumented application with bgJobs background
// tenants on bgDelegate and returns its steady-state frame breakdowns.
func appRun(platform *soc.SoC, seed uint64, m *models.Model, dt tensor.DType,
	delegate tflite.Delegate, frames, bgJobs int, bgDelegate tflite.Delegate) ([]core.StageTimes, error) {

	rt := tflite.NewStack(clonePlatform(platform), seed)
	a, err := app.New(rt, app.Config{Model: m, DType: dt, Delegate: delegate, Streaming: true})
	if err != nil {
		return nil, err
	}
	return a.Measure(context.Background(), warmupFrames, frames, bgJobs, bgDelegate)
}

// clonePlatform re-derives a fresh platform value so experiments cannot
// leak state through shared device structs.
func clonePlatform(p *soc.SoC) *soc.SoC {
	fresh, err := soc.PlatformByName(p.Name)
	if err != nil {
		cp := *p
		return &cp
	}
	return fresh
}
