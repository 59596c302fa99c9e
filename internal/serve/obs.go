package serve

import (
	"cmp"
	"slices"
	"time"

	"aitax/internal/obs"
)

// SimObs is the streaming-observability view of a finished load
// simulation: the windowed recorder, the closed rows (for JSONL and
// Chrome counter export), and the SLO monitor's verdicts. It is built
// by walking the simulator's step log — already byte-identical at any
// parallelism — through the same record path the wall-clock HTTP
// frontend feeds live, so reports, goldens and dashboards come from one
// code path.
type SimObs struct {
	Recorder *obs.Recorder
	// Monitor is nil when no objectives were configured.
	Monitor *obs.Monitor
	// Rows are the closed windows in index order.
	Rows []obs.Row
	// Models are the configured model names, in config order.
	Models []string
	// End is the virtual time the run drained at.
	End time.Duration
}

// BuildSimObs feeds a finished simulation into the streaming
// observability layer. window is the aggregation window width (zero =
// the recorder default); objectives, when non-empty, attach an SLO
// burn-rate monitor fed by the closed windows.
func BuildSimObs(cfg Config, res *SimResult, window time.Duration, objectives []obs.Objective) *SimObs {
	so := &SimObs{End: res.End.Duration(), Models: cfg.ModelNames()}

	var mon *obs.Monitor
	rec := obs.NewRecorder(obs.RecorderConfig{
		Window: window,
		// The steps arrive in time order, so every window beyond the
		// horizon is final: keep just enough live for the dashboard's
		// rolling view.
		Keep: 64,
		OnClose: func(row obs.Row) {
			so.Rows = append(so.Rows, row)
			if mon != nil {
				mon.OnRow(row)
			}
		},
	})
	if len(objectives) > 0 {
		mon = obs.NewMonitor(objectives, rec.Window())
	}
	so.Recorder = rec
	so.Monitor = mon

	series := newSeriesTable(rec, cfg, objectives)
	depth := make([]int, len(series.models))
	depthAll := 0
	for _, st := range res.orderedSteps() {
		at, o := res.stepTime(st), &res.Outcomes[st.idx]
		i := series.index[o.Model]
		m := &series.models[i]
		switch st.kind {
		case evArrive:
			series.recordOffered(m, o, at)
			depth[i]++
			depthAll++
			m.Depth.Observe(at, float64(depth[i]))
			series.all.Depth.Observe(at, float64(depthAll))
		case evRefuse:
			series.recordOffered(m, o, at)
		case evStart:
			depth[i]--
			depthAll--
		case evFinish:
			series.recordServed(m, o, at)
			series.recordBurn(o, at)
		}
	}
	rec.Flush()
	return so
}

// orderedSteps returns the step log in (time, kind, ID) order, sorting
// it in place on first use. The engine fires steps in time order, so
// only each run of simultaneous steps needs sorting.
func (r *SimResult) orderedSteps() []step {
	r.ordered.Do(func() {
		for i := 0; i < len(r.steps); {
			at, j := r.stepTime(r.steps[i]), i+1
			for j < len(r.steps) && r.stepTime(r.steps[j]) == at {
				j++
			}
			slices.SortFunc(r.steps[i:j], func(a, b step) int {
				return cmp.Or(
					cmp.Compare(a.kind, b.kind),
					cmp.Compare(r.Outcomes[a.idx].ID, r.Outcomes[b.idx].ID),
					cmp.Compare(a.idx, b.idx),
				)
			})
			i = j
		}
	})
	return r.steps
}

// stepTime is when st fired.
func (r *SimResult) stepTime(st step) time.Duration {
	o := &r.Outcomes[st.idx]
	switch st.kind {
	case evFinish:
		return o.Finished.Duration()
	case evStart:
		return o.Started.Duration()
	default:
		return o.Arrival.Duration()
	}
}

// seriesTable is every recorder series one serving harness writes,
// resolved to handles when the harness starts: each loaded model's and
// the all-models aggregate's series, the stage anatomy counters, and
// each objective's good/bad counters. Nothing writes to it afterwards,
// so the HTTP handlers read it without a lock. A model outside the
// loaded set never reaches a record call: Simulate and resolveModel
// reject it first.
type seriesTable struct {
	// models are the loaded models' series in Config.Models order;
	// index maps a model name to its position.
	models []obs.ModelHandles
	index  map[string]int
	all    obs.ModelHandles
	// stages[i] is obs.Stages[i]'s time counter.
	stages []obs.Counter
	// good[i] and bad[i] are slo[i]'s compliance counters.
	slo       []obs.Objective
	good, bad []obs.Counter
}

func newSeriesTable(rec *obs.Recorder, cfg Config, objectives []obs.Objective) *seriesTable {
	t := &seriesTable{
		index: make(map[string]int, len(cfg.Models)),
		all:   obs.SeriesFor(obs.AllModels).Handles(rec),
		slo:   objectives,
	}
	for i, m := range cfg.Models {
		t.models = append(t.models, obs.SeriesFor(m.Name).Handles(rec))
		t.index[m.Name] = i
	}
	for _, name := range obs.StageSeries {
		t.stages = append(t.stages, rec.Counter(name))
	}
	for _, o := range objectives {
		t.good = append(t.good, rec.Counter(obs.GoodSeries(o)))
		t.bad = append(t.bad, rec.Counter(obs.BadSeries(o)))
	}
	return t
}

// model returns the named loaded model's series.
func (t *seriesTable) model(name string) *obs.ModelHandles { return &t.models[t.index[name]] }

// recordOffered counts one arrival as offered and, when it was turned
// away, in its refusal series and against every objective covering its
// model: shedding is honest about the traffic it sacrifices. m is the
// series of the model the request asked for.
func (t *seriesTable) recordOffered(m *obs.ModelHandles, o *Outcome, at time.Duration) {
	for _, s := range [...]*obs.ModelHandles{m, &t.all} {
		s.Offered.Add(at, 1)
		switch {
		case o.Shed:
			s.Shed.Add(at, 1)
		case o.Rejected:
			s.Rejected.Add(at, 1)
		}
	}
	if o.Shed || o.Rejected {
		t.recordBurn(o, at)
	}
}

// recordBurn scores one resolved request against every objective
// covering its model: a refused request is bad, a served one by its
// latency.
func (t *seriesTable) recordBurn(o *Outcome, at time.Duration) {
	for i, obj := range t.slo {
		covered, breached := obj.Match(o.Model, o.Latency(), o.Shed || o.Rejected)
		switch {
		case !covered:
		case breached:
			t.bad[i].Add(at, 1)
		default:
			t.good[i].Add(at, 1)
		}
	}
}

// recordServed records one completed request's latency, batching and
// Table-III stage anatomy under the shared series-name contract — the
// single write path both harnesses use.
func (t *seriesTable) recordServed(m *obs.ModelHandles, o *Outcome, at time.Duration) {
	latMS := ms(o.Latency())
	for _, s := range [...]*obs.ModelHandles{m, &t.all} {
		s.Served.Add(at, 1)
		s.Latency.Observe(at, latMS)
		s.Batch.Observe(at, float64(o.BatchSize))
		s.BatchWait.Observe(at, ms(o.BatchWait()))
		s.DispatchWait.Observe(at, ms(o.DispatchWait()))
	}
	for i, st := range obs.Stages {
		t.stages[i].Add(at, ms(o.Stages.Of(st)))
	}
}

// Snapshot renders the end-of-run -watch dashboard: the exact text a
// live terminal dashboard would show at the moment the run drained.
func (so *SimObs) Snapshot() string {
	d := &obs.Dashboard{Rec: so.Recorder, Mon: so.Monitor, Models: so.Models}
	return d.Render(so.End)
}
