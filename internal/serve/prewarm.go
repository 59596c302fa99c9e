package serve

import (
	"context"
	"slices"

	"aitax/internal/plan"
	"aitax/internal/tflite"
)

// Prewarm fills t's batch-1 entries for cfg's loaded models (and, when
// a QoS policy can steer, their entries on the steer delegate too) as
// plan-cache prewarm jobs, so the exact plan keys serving touches —
// partition assignments, op-cost schedules, NNAPI compilations — are
// warm before the first request, and Fill or a server finds those
// entries measured. An entry is a pure function of its key, so results
// are byte-identical with or without the pass. The report prices the
// pass as cold-start AI tax moved from the first requests to startup.
func (t *CostTable) Prewarm(ctx context.Context, cfg Config) (plan.Report, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return plan.Report{}, err
	}
	var firstErr error
	// grid[1], when present, is the steer delegate's.
	grid := []Config{cfg}
	if cfg.QoS != nil {
		grid = append(grid, cfg.steered())
	}
	var jobs []plan.Job
	for i, c := range grid {
		for _, m := range c.Models {
			if !tflite.Supported(m, c.DType, c.Delegate) {
				// A loaded model outside the Table-I support matrix for this
				// configuration can't compile; requests to it fail the same
				// way warmed or not, so skip it rather than abort the pass.
				continue
			}
			jobs = append(jobs, plan.Job{Compile: func() {
				if _, err := t.entry(ctx, cfg, m, 1, i == 1); err != nil && firstErr == nil {
					firstErr = err
				}
			}})
		}
	}
	rep := plan.Shared.Prewarm(jobs)
	return rep, firstErr
}

// Prewarm readies the HTTP frontend before it takes traffic: it fills
// the server's batch-1 cost entries, compiling their plans on the way,
// so the first batch per model measures nothing, then warms the
// harness's own state — every metric and recorder series the handlers
// touch is pre-created (empty, no fabricated samples) and the QoS
// gauges are published — so the first /metrics scrape and the first
// recorder window aren't outliers missing most of the series set.
func (s *Server) Prewarm(ctx context.Context) (plan.Report, error) {
	rep, err := s.table.Prewarm(ctx, s.cfg)
	if err == nil {
		s.warmTelemetry()
	}
	return rep, err
}

// warmTelemetry pre-creates the serving series in the registry and the
// streaming recorder, and publishes the brownout gauges' starting
// values. Counters are touched with +0 and histograms created empty, so
// nothing a later scrape or window reports is fabricated.
func (s *Server) warmTelemetry() {
	at := s.now().Duration()
	for _, q := range s.core.order {
		s.metrics.Add(q.series.requests, 0)
		s.metrics.Add(q.series.rejected, 0)
		s.metrics.Add(q.series.cancelled, 0)
		s.metrics.Add(q.series.batches, 0)
		s.metrics.TouchHistogram(q.series.batchSize)
		s.metrics.TouchHistogram(q.series.service)
	}
	for _, ser := range append(slices.Clip(s.series.models), s.series.all) {
		ser.Offered.Add(at, 0)
		ser.Served.Add(at, 0)
		ser.Rejected.Add(at, 0)
		ser.Cancelled.Add(at, 0)
		ser.Latency.Touch(at)
		ser.Batch.Touch(at)
		ser.BatchWait.Touch(at)
		ser.DispatchWait.Touch(at)
	}
	for _, ser := range s.series.models {
		ser.Depth.Touch(at)
	}
	for _, c := range s.series.stages {
		c.Add(at, 0)
	}
	for i := range s.series.slo {
		s.series.good[i].Add(at, 0)
		s.series.bad[i].Add(at, 0)
	}
	if s.core.qs != nil {
		s.mu.Lock()
		temp := s.core.qs.therm.TempC()
		s.mu.Unlock()
		s.metrics.Set("aitax_qos_level", 0)
		s.metrics.Set("aitax_qos_temp_c", temp)
		s.metrics.Add("aitax_qos_transitions_total", 0)
		s.metrics.Add("aitax_qos_steered_batches_total", 0)
		s.metrics.Add("aitax_qos_throttled_batches_total", 0)
		for _, name := range shedSeries {
			s.metrics.Add(name, 0)
		}
		for _, q := range s.core.order {
			if _, ok := s.cfg.QoS.Downshift[q.name]; ok {
				s.metrics.Add(q.series.downshift, 0)
			}
		}
	}
}
