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

// rpcShareCap bounds the analytic FastRPC estimate to a plausible share
// of the inference stage: transport cannot exceed the whole offload.
const rpcShareCap = 0.40

// Anatomy is the base Table-III tax anatomy of one (catalog entry,
// model) pair: steady-state frame breakdowns from the instrumented app
// plus the per-frame FastRPC transport slice carved out of each frame's
// inference stage. The runner scales these by per-device jitter — the
// flat-memory trick that turns a 10k-device run into 10k cheap folds
// over a handful of cached anatomies.
type Anatomy struct {
	Frames [anatomySteady]core.StageTimes
	// RPC is the analytic per-frame FastRPC transport estimate for
	// Frames[i] (zero on pure-CPU paths). Always <= rpcShareCap of the
	// frame's inference stage.
	RPC [anatomySteady]time.Duration
	// Accel records whether inference ran on an accelerator (so device
	// folds scale it by accelerator binning instead of CPU thermals).
	Accel bool
}

// anatomyResult is the cached value: measurement errors are cached too,
// so every shard that needs a bad combination sees the same failure.
type anatomyResult struct {
	an  *Anatomy
	err error
}

// rpcPayloadBytes is the FastRPC input payload for a model: its input
// tensor (language models, which have no spatial input, use a nominal
// token-buffer payload).
func rpcPayloadBytes(m *models.Model, dt tensor.DType) int64 {
	if m.InputW == 0 || m.InputH == 0 {
		return 4096
	}
	return int64(m.InputW) * int64(m.InputH) * 3 * int64(dt.Size())
}

// dspBound reports whether the delegate crosses FastRPC for this dtype:
// the Hexagon delegate always does, NNAPI routes quantized graphs to
// the DSP (fp32 goes to the GPU driver, no FastRPC).
func dspBound(delegate tflite.Delegate, dt tensor.DType) bool {
	if delegate == tflite.DelegateHexagon {
		return true
	}
	return delegate == tflite.DelegateNNAPI && dt != tensor.Float32
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
	an := &Anatomy{Accel: delegate != tflite.DelegateCPU}
	copy(an.Frames[:], sts)

	if dspBound(delegate, dt) {
		est := platform.RPC.CallOverhead(rpcPayloadBytes(m, dt))
		for i, f := range an.Frames {
			rpc := est
			if lim := time.Duration(rpcShareCap * float64(f.Stage[core.StageInference])); rpc > lim {
				rpc = lim
			}
			an.RPC[i] = rpc
		}
	}
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
func anatomyFor(c *plan.Cache, sp soc.Spec, m *models.Model, dt tensor.DType,
	delegate tflite.Delegate, seed uint64) (*Anatomy, error) {

	v := c.Get(anatomyKey(&sp, m, dt, delegate, seed), func() any {
		an, err := measureAnatomy(sp, m, dt, delegate, seed)
		return anatomyResult{an: an, err: err}
	})
	res := v.(anatomyResult)
	return res.an, res.err
}
