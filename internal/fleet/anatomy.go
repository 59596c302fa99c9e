package fleet

import (
	"context"
	"fmt"
	"time"

	"aitax/internal/app"
	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/plan"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// anatomyFrames is the app-simulation length behind one base anatomy:
// warmup frames are discarded (plan compilation, cache fill), steady
// frames are kept and scaled per device.
const (
	anatomyWarmup = 2
	anatomySteady = 4
)

// Anatomy is the base Table-III tax anatomy of one (catalog entry,
// model) pair: steady-state frame breakdowns from the instrumented app.
// Each frame's RPC is what its invoke's FastRPC calls charged (zero on a
// frame that never crossed to the DSP). The runner scales these by
// per-device jitter — the flat-memory trick that turns a 10k-device run
// into 10k cheap folds over a handful of cached anatomies.
type Anatomy struct {
	Frames [anatomySteady]core.StageTimes
	// Accel records whether the plan that ran put any of inference on
	// an accelerator (so device folds scale it by accelerator binning
	// instead of CPU thermals).
	Accel bool
}

// frameMS is one anatomy frame in float milliseconds, the form the
// device fold reads: the CPU stages, the frame's FastRPC time, and the
// kernel row (inference less that RPC).
type frameMS struct {
	capture, pre, post, ui, rpc, kernel float64
}

// foldAnatomy is an anatomy converted for the device fold.
type foldAnatomy struct {
	frames [anatomySteady]frameMS
	accel  bool
}

func msf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func newFoldAnatomy(an *Anatomy) foldAnatomy {
	fa := foldAnatomy{accel: an.Accel}
	for i := range an.Frames {
		f := &an.Frames[i]
		rpc := msf(f.RPC)
		fa.frames[i] = frameMS{
			capture: msf(f.Stage[core.StageCapture]),
			pre:     msf(f.Stage[core.StagePre]),
			post:    msf(f.Stage[core.StagePost]),
			ui:      msf(f.Stage[core.StageUI]),
			rpc:     rpc,
			kernel:  msf(f.Stage[core.StageInference]) - rpc,
		}
	}
	return fa
}

// anatomyResult is the cached value: the anatomy together with its fold
// form, converted once per (catalog entry, model) rather than per device
// or per shard. Measurement errors are cached too, so every shard that
// needs a bad combination sees the same failure.
type anatomyResult struct {
	an   *Anatomy
	fold foldAnatomy
	err  error
}

// measureAnatomy runs the instrumented app once for the pair and
// extracts the steady frames. One full discrete-event simulation per
// (catalog entry, model) — not per device.
func measureAnatomy(sp soc.Spec, m *models.Model, dt tensor.DType,
	delegate tflite.Delegate, seed uint64) (*Anatomy, error) {

	platform, err := sp.Build()
	if err != nil {
		return nil, err
	}
	rt := tflite.NewStack(platform, seed)
	a, err := app.New(rt, app.Config{Model: m, DType: dt, Delegate: delegate, Streaming: true})
	if err != nil {
		return nil, fmt.Errorf("fleet: %s / %s: %w", sp.Name, m.Name, err)
	}
	sts, err := a.Measure(context.Background(), anatomyWarmup, anatomySteady, 0, 0)
	if err != nil {
		return nil, fmt.Errorf("fleet: %s / %s: %w", sp.Name, m.Name, err)
	}
	an := &Anatomy{Accel: a.Interpreter().Accelerated()}
	copy(an.Frames[:], sts)
	return an, nil
}

// anatomyKey is the plan-cache key for one base anatomy. Seed and
// delegate live in Scope so fleet runs with different parameters in one
// process never share entries they should not.
func anatomyKey(sp *soc.Spec, m *models.Model, dt tensor.DType,
	delegate tflite.Delegate, seed uint64) plan.Key {
	return plan.Key{
		Kind:     "fleet-anatomy",
		Model:    m.Name,
		DType:    dt,
		Scope:    fmt.Sprintf("%s/%d/%d", delegate, anatomyWarmup+anatomySteady, seed),
		Platform: sp.Name,
	}
}

// anatomyFor resolves the cached base anatomy for a pair, measuring it
// exactly once per process (per cache) however many shards ask — the
// plan.Cache fan-in the sharded map exists for.
func anatomyFor(c *plan.Cache, sp *soc.Spec, m *models.Model, dt tensor.DType,
	delegate tflite.Delegate, seed uint64) *anatomyResult {

	return c.Get(anatomyKey(sp, m, dt, delegate, seed), func() any {
		an, err := measureAnatomy(*sp, m, dt, delegate, seed)
		res := &anatomyResult{an: an, err: err}
		if err == nil {
			res.fold = newFoldAnatomy(an)
		}
		return res
	}).(*anatomyResult)
}
