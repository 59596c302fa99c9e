package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"aitax/internal/app"
	taxcore "aitax/internal/core"
	"aitax/internal/faults"
	"aitax/internal/lab"
	"aitax/internal/models"
	"aitax/internal/tflite"
)

// BatchCost is the measured virtual-time cost of executing one batch of
// a model: k requests run back-to-back on a fresh executor stack whose
// model is loaded and plan compiled, but whose FastRPC session is not
// yet open. On a DSP config the first invoke opens it, so Service and
// Sum.RPC include the session setup.
type BatchCost struct {
	// Service is the executor's busy time for the whole batch (virtual),
	// excluding the per-dispatch overhead (Config.DispatchCost).
	Service time.Duration
	// Sum is the batch's stage anatomy summed over its k requests. Its
	// RPC and Exec are what the invokes' FastRPC calls charged, and stay
	// zero on delegates that never cross to the DSP.
	Sum taxcore.StageTimes
}

// batchSeed derives the executor-stack seed for one (model, batch-size)
// measurement. It depends only on the base seed and the measurement's
// identity, never on scheduling, so the cost table is a pure function
// of the config.
func batchSeed(base uint64, model string, k int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(model))
	return base ^ h.Sum64() ^ uint64(k)*0x9E3779B97F4A7C15
}

// MeasureBatch builds a fresh executor stack for m, warms it (Init
// loads the model and compiles the plan — shared process-wide through
// plan.Shared), and runs a batch of k requests through the stage
// subgraph [cfg.Entry, post]. Each measurement is an independent,
// fully deterministic simulation.
func MeasureBatch(ctx context.Context, cfg Config, m *models.Model, k int) (BatchCost, error) {
	if k < 1 {
		return BatchCost{}, fmt.Errorf("serve: batch size must be at least 1, got %d", k)
	}
	if cfg.Platform == nil {
		return BatchCost{}, ErrNoPlatform
	}
	rt := tflite.NewStack(cfg.Platform, batchSeed(cfg.Seed, m.Name, k))
	inj, err := faults.New(cfg.Faults.Resolved(cfg.Seed))
	if err != nil {
		return BatchCost{}, err
	}
	rt.Faults = inj
	a, err := app.New(rt, app.Config{
		Model: m, DType: cfg.DType, Delegate: cfg.Delegate, Streaming: false,
	})
	if err != nil {
		return BatchCost{}, err
	}
	var bc BatchCost
	a.Init(func() {
		start := rt.Eng.Now()
		var next func(i int)
		next = func(i int) {
			if i == k {
				bc.Service = rt.Eng.Now().Sub(start)
				return
			}
			a.ProcessRange(cfg.Entry, taxcore.StagePost, func(st taxcore.StageTimes) {
				bc.Sum = bc.Sum.Add(st)
				next(i + 1)
			})
		}
		next(0)
	})
	if err := lab.Drain(ctx, rt.Eng); err != nil {
		return BatchCost{}, err
	}
	return bc, nil
}

// CostTable holds the measured batch costs of one config, keyed by
// (model, batch size, steered). Every serving batch is priced from it:
// the virtual-time simulator reads a table BuildCostTable filled up
// front, and the HTTP frontend fills its own on first use. An entry is
// a pure function of the config and its key (see batchSeed), so one
// measurement per key serves both clocks.
type CostTable struct {
	mu      sync.RWMutex
	entries map[costKey]BatchCost
}

// costKey names one table entry; steered entries are priced on the QoS
// steer delegate.
type costKey struct {
	model   string
	k       int
	steered bool
}

func newCostTable() *CostTable {
	return &CostTable{entries: make(map[costKey]BatchCost)}
}

// cost returns the entry for a k-request batch of model from a table
// BuildCostTable has filled: the simulator's. Nothing writes that table
// any more, so cost reads it without the lock, and a miss is a bug.
func (t *CostTable) cost(model string, k int, steered bool) BatchCost {
	bc, ok := t.entries[costKey{model, k, steered}]
	if !ok {
		panic(fmt.Sprintf("serve: no cost entry for %q batch %d (steered %v)", model, k, steered))
	}
	return bc
}

// entry returns the cost of a k-request batch of m under cfg, measuring
// it on a miss. Only a successful measurement is stored, so a cancelled
// ctx, an error or a panic never becomes an entry. Two callers racing
// on one miss both measure and store the same value.
func (t *CostTable) entry(ctx context.Context, cfg Config, m *models.Model, k int, steered bool) (BatchCost, error) {
	key := costKey{m.Name, k, steered}
	t.mu.RLock()
	bc, ok := t.entries[key]
	t.mu.RUnlock()
	if ok {
		return bc, nil
	}
	if steered {
		cfg = cfg.steered()
	}
	bc, err := MeasureBatch(ctx, cfg, m, k)
	if err == nil {
		t.mu.Lock()
		t.entries[key] = bc
		t.mu.Unlock()
	}
	return bc, err
}

// BuildCostTable measures every (model, batch size) pair on the lab
// worker pool. Each entry is an independent deterministic simulation,
// so the table is byte-identical at any parallelism; onProgress (when
// non-nil) observes per-entry completion.
func BuildCostTable(ctx context.Context, cfg Config, parallel int, onProgress func(lab.JobResult)) (*CostTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := newCostTable()
	var jobs []lab.Job
	add := func(id string, m *models.Model, k int, steered bool) {
		jobs = append(jobs, lab.Job{ID: id, Run: func(ctx context.Context) (any, error) {
			return t.entry(ctx, cfg, m, k, steered)
		}})
	}
	// The steer grid prices batches on the QoS steer delegate — the
	// level-3 fail-over path — with the same per-entry seeds, so adding a
	// policy never perturbs the primary grid.
	for _, m := range cfg.Models {
		for k := 1; k <= cfg.MaxBatch; k++ {
			add(fmt.Sprintf("%s/b%d", m.Name, k), m, k, false)
			if cfg.QoS != nil {
				add(fmt.Sprintf("%s/steer/b%d", m.Name, k), m, k, true)
			}
		}
	}
	l := &lab.Lab{Parallelism: parallel, OnProgress: onProgress}
	for _, r := range l.Run(ctx, jobs) {
		if r.Err != nil {
			return nil, fmt.Errorf("serve: measuring %s: %w", r.ID, r.Err)
		}
	}
	return t, nil
}
