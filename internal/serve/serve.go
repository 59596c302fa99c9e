// Package serve is the inference-serving frontend: it accepts
// classification / detection / segmentation requests, admits them into
// per-model bounded queues, gathers admitted requests into micro-batches
// (a batch window capped at a maximum batch size), and executes batches
// on a bounded pool of model executors built from the simulated stack.
//
// The policy — admission, brownout shedding and downshift, batch
// formation, FIFO dispatch with steering and thermal throttling,
// completion accounting and the brownout tick — is one clock-driven
// state machine (core.go), adapted to two clocks:
//
//   - a wall-clock HTTP frontend ([Server]) for interactive use, whose
//     timers run the core under the server mutex, and
//   - a virtual-time discrete-event simulator ([Simulate]) driven by
//     the open-loop generator in internal/loadgen, whose reports are
//     byte-identical for a fixed seed at any -parallel value.
//
// Serving adds its own AI tax on top of the per-frame pipeline tax:
// batch-formation wait (the window), dispatch wait (all executors
// busy), and the per-dispatch overhead amortized across the batch.
// The core accounts these once, so both harnesses bill the serving tax
// identically, next to the pipeline's own.
package serve

import (
	"errors"
	"fmt"
	"time"

	taxcore "aitax/internal/core"
	"aitax/internal/faults"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// Config fixes the serving policy and the executor stack.
type Config struct {
	// Platform is the simulated SoC the executors run on.
	Platform *soc.SoC
	// DType and Delegate select the models' execution configuration.
	DType    tensor.DType
	Delegate tflite.Delegate
	// Models is the loaded model set; requests for anything else are
	// rejected with a not-found error. Empty means DefaultModels.
	Models []*models.Model
	// Entry is where served requests enter the stage graph: StagePre
	// (the payload is an image needing the pixel pipeline) or
	// StageInference (the payload arrives as a ready tensor). Requests
	// always exit after StagePost.
	Entry taxcore.Stage
	// Workers is the number of model executors; at most this many
	// batches are in service at once.
	Workers int
	// BatchWindow is how long an open batch waits for co-riders before
	// it is flushed to an executor. Zero disables batching delay: every
	// request dispatches immediately.
	BatchWindow time.Duration
	// MaxBatch flushes a batch early once it holds this many requests.
	MaxBatch int
	// QueueDepth is the per-model admission limit: requests admitted
	// but not yet in service. Arrivals beyond it are rejected
	// (HTTP 429 on the wire, counted in both harnesses).
	QueueDepth int
	// DispatchCost is the fixed per-batch dispatch overhead (executor
	// wakeup, tensor buffer binding) paid once per batch and amortized
	// across its members — the cost micro-batching exists to spread.
	DispatchCost time.Duration
	// Seed derives every executor stack's RNG stream.
	Seed uint64
	// Faults is the deterministic fault plan threaded into every
	// executor stack.
	Faults faults.Plan
	// SLO lists the latency objectives the serving observability layer
	// monitors (burn-rate alerts, /v1/slo, the loadgen SLO report).
	// Empty disables SLO monitoring.
	SLO []obs.Objective
	// ObsWindow is the streaming recorder's aggregation window (zero =
	// the obs default, 250ms) — virtual time in the simulator, wall
	// clock in the HTTP frontend.
	ObsWindow time.Duration
	// QoS, when non-nil, puts the brownout controller behind the
	// harness: QoS-class shedding, model downshift and thermal-aware
	// delegate steering under pressure. Requires SLO objectives (the
	// controller's burn signal).
	QoS *QoSPolicy
}

// DefaultModels returns the standard serving set: one model per
// endpoint task (classify, detect, segment).
func DefaultModels() []*models.Model {
	set := make([]*models.Model, 0, 3)
	for _, name := range []string{
		"MobileNet 1.0 v1",
		"SSD MobileNet v2",
		"Deeplab-v3 MobileNet-v2",
	} {
		m, err := models.ByName(name)
		if err != nil {
			panic(err) // catalog regression, unreachable
		}
		set = append(set, m)
	}
	return set
}

// Defaults fills unset fields with the serving defaults. BatchWindow
// and DispatchCost are left alone: zero is meaningful for both
// (immediate dispatch, free dispatch), so their defaults live on the
// command-line flags instead.
func (c Config) Defaults() Config {
	if c.Models == nil {
		c.Models = DefaultModels()
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 4
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.QoS != nil {
		c.QoS = c.QoS.withDefaults()
	}
	return c
}

// ErrNoPlatform is the error for a config without a platform: there is
// no SoC to build an executor stack on.
var ErrNoPlatform = errors.New("serve: config needs a platform")

// Validate reports the first problem with the config.
func (c Config) Validate() error {
	if c.Platform == nil {
		return ErrNoPlatform
	}
	if len(c.Models) == 0 {
		return fmt.Errorf("serve: config needs at least one model")
	}
	if c.Entry != taxcore.StagePre && c.Entry != taxcore.StageInference {
		return fmt.Errorf("serve: entry stage must be pre or inference, got %v", c.Entry)
	}
	if c.Workers < 1 {
		return fmt.Errorf("serve: workers must be at least 1, got %d", c.Workers)
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: max batch must be at least 1, got %d", c.MaxBatch)
	}
	if c.QueueDepth < 1 {
		return fmt.Errorf("serve: queue depth must be at least 1, got %d", c.QueueDepth)
	}
	if c.BatchWindow < 0 {
		return fmt.Errorf("serve: batch window must be non-negative, got %v", c.BatchWindow)
	}
	if c.DispatchCost < 0 {
		return fmt.Errorf("serve: dispatch cost must be non-negative, got %v", c.DispatchCost)
	}
	if c.QoS != nil {
		if err := c.validateQoS(); err != nil {
			return err
		}
	}
	return nil
}

// modelByName resolves name within the loaded set.
func (c Config) modelByName(name string) (*models.Model, bool) {
	for _, m := range c.Models {
		if m.Name == name {
			return m, true
		}
	}
	return nil, false
}
