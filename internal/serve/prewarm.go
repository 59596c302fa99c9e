package serve

import (
	"context"
	"fmt"

	"aitax/internal/obs"
	"aitax/internal/plan"
	"aitax/internal/qos"
	"aitax/internal/telemetry"
	"aitax/internal/tflite"
)

// PrewarmConfig compiles the serving plans for every loaded model into
// the process-shared cache: one single-request batch per model (and,
// when a QoS policy can steer, per model on the steer delegate too), so
// the exact plan keys serving touches — partition assignments, op-cost
// schedules, NNAPI compilations — are warm before the first request.
// The batches run in virtual time on throwaway stacks; only the cached
// plans survive, so results are byte-identical with or without the
// pass. The report prices the pass as cold-start AI tax moved from the
// first requests to startup.
func PrewarmConfig(ctx context.Context, cfg Config) (plan.Report, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return plan.Report{}, err
	}
	var firstErr error
	grid := []Config{cfg}
	if cfg.QoS != nil {
		grid = append(grid, cfg.steered())
	}
	var jobs []plan.Job
	for _, c := range grid {
		for _, m := range c.Models {
			if !tflite.Supported(m, c.DType, c.Delegate) {
				// A loaded model outside the Table-I support matrix for this
				// configuration can't compile; requests to it fail the same
				// way warmed or not, so skip it rather than abort the pass.
				continue
			}
			c, m := c, m
			jobs = append(jobs, plan.Job{
				Label: fmt.Sprintf("%s/%s/%v/%v", c.Platform.Name, m.Name, c.DType, c.Delegate),
				Compile: func() {
					if _, err := MeasureBatch(ctx, c, m, 1); err != nil && firstErr == nil {
						firstErr = err
					}
				},
			})
		}
	}
	rep := plan.Shared.Prewarm(jobs)
	return rep, firstErr
}

// Prewarm readies the HTTP frontend before it takes traffic: it runs
// PrewarmConfig so the first batch per model pays no plan compilation,
// then warms the harness's own state — every metric and recorder series
// the handlers touch is pre-created (empty, no fabricated samples) and
// the QoS gauges are published — so the first /metrics scrape and the
// first recorder window aren't outliers missing most of the series set.
func (s *Server) Prewarm(ctx context.Context) (plan.Report, error) {
	rep, err := PrewarmConfig(ctx, s.cfg)
	if err != nil {
		return rep, err
	}
	s.warmTelemetry()
	return rep, nil
}

// warmTelemetry pre-creates the serving series in the registry and the
// streaming recorder, and publishes the brownout gauges' starting
// values. Counters are touched with +0 and histograms created empty, so
// nothing a later scrape or window reports is fabricated.
func (s *Server) warmTelemetry() {
	at := s.now().Duration()
	names := make([]string, 0, len(s.cfg.Models))
	for _, m := range s.cfg.Models {
		names = append(names, m.Name)
	}
	for _, name := range names {
		s.metrics.Add(telemetry.Labeled("aitax_serve_requests_total", "model", name), 0)
		s.metrics.Add(telemetry.Labeled("aitax_serve_rejected_total", "model", name), 0)
		s.metrics.Add(telemetry.Labeled("aitax_serve_cancelled_total", "model", name), 0)
		s.metrics.Add(telemetry.Labeled("aitax_serve_batches_total", "model", name), 0)
		s.metrics.TouchHistogram(telemetry.Labeled("aitax_serve_batch_size", "model", name))
		s.metrics.TouchHistogram(telemetry.Labeled("aitax_serve_service_ms", "model", name))
	}
	for _, name := range append(names, obs.AllModels) {
		s.rec.Add(at, obs.OfferedSeries(name), 0)
		s.rec.Add(at, obs.ServedSeries(name), 0)
		s.rec.Add(at, obs.RejectedSeries(name), 0)
		s.rec.Add(at, obs.CancelledSeries(name), 0)
		s.rec.Touch(at, obs.LatencySeries(name))
		s.rec.Touch(at, obs.BatchSeries(name))
		s.rec.Touch(at, obs.BatchWaitSeries(name))
		s.rec.Touch(at, obs.DispatchWaitSeries(name))
	}
	for _, name := range names {
		s.rec.Touch(at, obs.DepthSeries(name))
	}
	for _, st := range obs.Stages {
		s.rec.Add(at, obs.StageSeries(st), 0)
	}
	for _, obj := range s.cfg.SLO {
		s.rec.Add(at, obs.GoodSeries(obj), 0)
		s.rec.Add(at, obs.BadSeries(obj), 0)
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
		for c := qos.Class(0); c < qos.NumClasses; c++ {
			s.metrics.Add(telemetry.Labeled("aitax_qos_shed_total", "class", c.String()), 0)
		}
		for _, name := range names {
			if _, ok := s.cfg.QoS.Downshift[name]; ok {
				s.metrics.Add(telemetry.Labeled("aitax_qos_downshift_total", "model", name), 0)
			}
		}
	}
}
