package serve

import (
	"sort"
	"time"

	"aitax/internal/obs"
)

// SimObs is the streaming-observability view of a finished load
// simulation: the windowed recorder, the closed rows (for JSONL and
// Chrome counter export), and the SLO monitor's verdicts. It is built
// by replaying the simulator's outcome list — already byte-identical at
// any parallelism — through the same obs layer the wall-clock HTTP
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

// obsEvent is one replay step; kind orders simultaneous events
// deterministically (admission before refusal before completion before
// executor pickup).
type obsEvent struct {
	at   time.Duration
	kind int
	idx  int // index into res.Outcomes
}

const (
	evArrive = iota
	evRefuse
	evFinish
	evStart
)

// BuildSimObs replays a finished simulation into the streaming
// observability layer. window is the aggregation window width (zero =
// the recorder default); objectives, when non-empty, attach an SLO
// burn-rate monitor fed by the closed windows.
func BuildSimObs(cfg Config, res *SimResult, window time.Duration, objectives []obs.Objective) *SimObs {
	so := &SimObs{End: res.End.Duration()}
	for _, m := range cfg.Models {
		so.Models = append(so.Models, m.Name)
	}

	var mon *obs.Monitor
	rec := obs.NewRecorder(obs.RecorderConfig{
		Window: window,
		// The replay is ordered, so every window beyond the horizon is
		// final: keep just enough live for the dashboard's rolling view.
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
		mon.KeepHistory = true
	}
	so.Recorder = rec
	so.Monitor = mon

	events := make([]obsEvent, 0, 4*len(res.Outcomes))
	for i, o := range res.Outcomes {
		if o.Shed || o.Rejected {
			events = append(events, obsEvent{o.Arrival.Duration(), evRefuse, i})
			continue
		}
		events = append(events,
			obsEvent{o.Arrival.Duration(), evArrive, i},
			obsEvent{o.Started.Duration(), evStart, i},
			obsEvent{o.Finished.Duration(), evFinish, i},
		)
	}
	sort.SliceStable(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return res.Outcomes[a.idx].ID < res.Outcomes[b.idx].ID
	})

	series := newSeriesTable(cfg, objectives)
	depth := make(map[string]int, len(so.Models))
	depthAll := 0
	for _, ev := range events {
		o := res.Outcomes[ev.idx]
		switch ev.kind {
		case evArrive:
			series.recordOffered(rec, o, ev.at)
			depth[o.Model]++
			depthAll++
			rec.Observe(ev.at, series.models[o.Model].Depth, float64(depth[o.Model]))
			rec.Observe(ev.at, series.all.Depth, float64(depthAll))
		case evRefuse:
			series.recordOffered(rec, o, ev.at)
		case evStart:
			depth[o.Model]--
			depthAll--
		case evFinish:
			series.recordServed(rec, o, ev.at)
			series.recordBurn(rec, o, ev.at)
		}
	}
	rec.Flush()
	return so
}

// seriesTable is every recorder series name one serving harness
// writes, rendered once when the harness starts: each loaded model's
// and the all-models aggregate's names, and each objective's good/bad
// counters. Nothing writes to it afterwards, so the HTTP handlers read
// it without a lock. A model outside the loaded set never reaches a
// record call: Simulate and resolveModel reject it first.
type seriesTable struct {
	models map[string]*obs.ModelSeries
	all    obs.ModelSeries
	// good[i] and bad[i] are slo[i]'s compliance counters.
	slo       []obs.Objective
	good, bad []string
}

func newSeriesTable(cfg Config, objectives []obs.Objective) *seriesTable {
	t := &seriesTable{
		models: make(map[string]*obs.ModelSeries, len(cfg.Models)),
		all:    obs.SeriesFor(obs.AllModels),
		slo:    objectives,
	}
	for _, m := range cfg.Models {
		s := obs.SeriesFor(m.Name)
		t.models[m.Name] = &s
	}
	for _, o := range objectives {
		t.good = append(t.good, obs.GoodSeries(o))
		t.bad = append(t.bad, obs.BadSeries(o))
	}
	return t
}

// recordOffered counts one arrival as offered and, when it was turned
// away, in its refusal series and against every objective covering its
// model: shedding is honest about the traffic it sacrifices.
func (t *seriesTable) recordOffered(rec *obs.Recorder, o Outcome, at time.Duration) {
	for _, s := range [...]*obs.ModelSeries{t.models[o.Model], &t.all} {
		rec.Add(at, s.Offered, 1)
		switch {
		case o.Shed:
			rec.Add(at, s.Shed, 1)
		case o.Rejected:
			rec.Add(at, s.Rejected, 1)
		}
	}
	if o.Shed || o.Rejected {
		t.recordBurn(rec, o, at)
	}
}

// recordBurn scores one resolved request against every objective
// covering its model: a refused request is bad, a served one by its
// latency.
func (t *seriesTable) recordBurn(rec *obs.Recorder, o Outcome, at time.Duration) {
	for i, obj := range t.slo {
		covered, breached := obj.Match(o.Model, o.Latency(), o.Shed || o.Rejected)
		switch {
		case !covered:
		case breached:
			rec.Add(at, t.bad[i], 1)
		default:
			rec.Add(at, t.good[i], 1)
		}
	}
}

// recordServed records one completed request's latency, batching and
// Table-III stage anatomy under the shared series-name contract — the
// single write path both harnesses use.
func (t *seriesTable) recordServed(rec *obs.Recorder, o Outcome, at time.Duration) {
	latMS := ms(o.Latency())
	for _, s := range [...]*obs.ModelSeries{t.models[o.Model], &t.all} {
		rec.Add(at, s.Served, 1)
		rec.Observe(at, s.Latency, latMS)
		rec.Observe(at, s.Batch, float64(o.BatchSize))
		rec.Observe(at, s.BatchWait, ms(o.BatchWait()))
		rec.Observe(at, s.DispatchWait, ms(o.DispatchWait()))
	}
	for i, st := range obs.Stages {
		rec.Add(at, obs.StageSeries[i], ms(o.Stages.Of(st)))
	}
}

// Snapshot renders the end-of-run -watch dashboard: the exact text a
// live terminal dashboard would show at the moment the run drained.
func (so *SimObs) Snapshot() string {
	d := &obs.Dashboard{Rec: so.Recorder, Mon: so.Monitor, Models: so.Models}
	return d.Render(so.End)
}
