package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"aitax/internal/app"
	taxcore "aitax/internal/core"
	"aitax/internal/faults"
	"aitax/internal/lab"
	"aitax/internal/models"
	"aitax/internal/tflite"
)

// BatchCost is the measured virtual-time cost of executing one batch of
// a model: k requests run back-to-back on a warm executor stack.
type BatchCost struct {
	// Batch is the batch size k.
	Batch int
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
	bc := BatchCost{Batch: k}
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

// CostTable holds the measured batch costs for every (loaded model,
// batch size 1..MaxBatch) pair. The virtual-time simulator prices
// batches from it, so queueing decisions and service times decouple:
// the table is built once, in parallel, and the queueing simulation
// replays it sequentially.
type CostTable struct {
	entries map[string][]BatchCost
	// steer holds the same grid measured on the QoS steer delegate;
	// populated only when the config carries a QoS policy.
	steer map[string][]BatchCost
}

// cost returns the measured cost of a k-request batch of model, on the
// steer delegate when steered.
func (t *CostTable) cost(model string, k int, steered bool) BatchCost {
	grid := t.entries
	if steered {
		grid = t.steer
	}
	row, ok := grid[model]
	if !ok || k < 1 || k > len(row) {
		panic(fmt.Sprintf("serve: no cost entry for %q batch %d (steered %v)", model, k, steered))
	}
	return row[k-1]
}

// BuildCostTable measures every (model, batch size) pair on the lab
// worker pool. Each entry is an independent deterministic simulation,
// so the table is byte-identical at any parallelism; onProgress (when
// non-nil) observes per-entry completion.
func BuildCostTable(ctx context.Context, cfg Config, parallel int, onProgress func(lab.JobResult)) (*CostTable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &CostTable{
		entries: make(map[string][]BatchCost),
		steer:   make(map[string][]BatchCost),
	}
	var jobs []lab.Job
	var cells []*BatchCost // jobs[i] measures *cells[i]
	add := func(id string, cfg Config, m *models.Model, k int, cell *BatchCost) {
		cells = append(cells, cell)
		jobs = append(jobs, lab.Job{ID: id, Run: func(ctx context.Context) (any, error) {
			return MeasureBatch(ctx, cfg, m, k)
		}})
	}
	// The steer grid prices batches on the QoS steer delegate — the
	// level-3 fail-over path — with the same per-entry seeds, so adding a
	// policy never perturbs the primary grid.
	for _, m := range cfg.Models {
		row := make([]BatchCost, cfg.MaxBatch)
		t.entries[m.Name] = row
		var steerRow []BatchCost
		if cfg.QoS != nil {
			steerRow = make([]BatchCost, cfg.MaxBatch)
			t.steer[m.Name] = steerRow
		}
		for k := 1; k <= cfg.MaxBatch; k++ {
			add(fmt.Sprintf("%s/b%d", m.Name, k), cfg, m, k, &row[k-1])
			if steerRow != nil {
				add(fmt.Sprintf("%s/steer/b%d", m.Name, k), cfg.steered(), m, k, &steerRow[k-1])
			}
		}
	}
	l := &lab.Lab{Parallelism: parallel, OnProgress: onProgress}
	for i, r := range l.Run(ctx, jobs) {
		if r.Err != nil {
			return nil, fmt.Errorf("serve: measuring %s: %w", r.ID, r.Err)
		}
		*cells[i] = r.Value.(BatchCost)
	}
	return t, nil
}
