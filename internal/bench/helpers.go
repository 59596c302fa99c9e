package bench

import (
	"fmt"
	"time"

	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/tensor"
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
