package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aitax/internal/telemetry"
)

// Objective is one latency SLO: Target of the objective's requests must
// finish under Latency. A rejected request always breaches (the client
// got nothing). Model "" aggregates every model.
type Objective struct {
	// Model is the Table-I model name this objective covers; empty
	// means all models together.
	Model string
	// Latency is the per-request latency threshold.
	Latency time.Duration
	// Target is the required compliant fraction in (0,1), e.g. 0.99.
	Target float64
}

// Name returns the objective's display name.
func (o Objective) Name() string {
	if o.Model == "" {
		return "all models"
	}
	return o.Model
}

// Budget returns the error budget 1-Target.
func (o Objective) Budget() float64 { return 1 - o.Target }

// describe renders the objective's contract, e.g. "99% < 250ms".
func (o Objective) describe() string {
	return fmt.Sprintf("%s%% < %s", trimFloat(o.Target*100), o.Latency)
}

// trimFloat renders a float without trailing zeros (99, 99.9),
// rounding away binary artifacts (99.9/100*100 = 99.90000000000001).
func trimFloat(v float64) string {
	return strconv.FormatFloat(math.Round(v*1e9)/1e9, 'f', -1, 64)
}

// ErrBadObjective tags every SLO-spec parse error, so the edges can
// recognize bad input with errors.Is instead of matching message text.
var ErrBadObjective = errors.New("obs: bad slo spec")

// ParseObjectives parses an SLO spec of the form
// "MODEL=LATENCY@TARGET[,...]", e.g.
//
//	"MobileNet 1.0 v1=250ms@99,all=400ms@95"
//
// LATENCY uses Go duration syntax; TARGET is a percentage (99, 99.9).
// MODEL "all" or "*" covers every model in aggregate. All errors wrap
// ErrBadObjective. The range check is on the rounded fraction and
// written so NaN fails it (NaN compares false against both bounds), so
// no spec yields a Target outside (0,1).
func ParseObjectives(spec string) ([]Objective, error) {
	var out []Objective
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%w: %q: want MODEL=LATENCY@TARGET, e.g. all=250ms@99", ErrBadObjective, part)
		}
		latStr, pctStr, ok := strings.Cut(rest, "@")
		if !ok {
			return nil, fmt.Errorf("%w: %q: missing @TARGET percentage", ErrBadObjective, part)
		}
		lat, err := time.ParseDuration(strings.TrimSpace(latStr))
		if err != nil || lat <= 0 {
			return nil, fmt.Errorf("%w: %q: bad latency %q", ErrBadObjective, part, latStr)
		}
		pct, err := strconv.ParseFloat(strings.TrimSpace(pctStr), 64)
		// Round so "99.9" yields the same double as the 0.999 literal
		// (pct/100 alone gives 0.9990000000000001).
		target := math.Round(pct/100*1e12) / 1e12
		if err != nil || !(target > 0 && target < 1) {
			return nil, fmt.Errorf("%w: %q: target must be a percentage in (0,100), got %q", ErrBadObjective, part, pctStr)
		}
		model := strings.TrimSpace(name)
		if model == "all" || model == "*" {
			model = ""
		}
		out = append(out, Objective{Model: model, Latency: lat, Target: target})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: empty spec", ErrBadObjective)
	}
	return out, nil
}

// GoodSeries and BadSeries name the per-objective compliance counters
// the serving bridges record into the Recorder and the Monitor reads
// back out of closed rows.
func GoodSeries(o Objective) string {
	return telemetry.Labeled("slo_good", "objective", o.Name())
}

// BadSeries is the breach counter's series name for o.
func BadSeries(o Objective) string {
	return telemetry.Labeled("slo_bad", "objective", o.Name())
}

// Alert is one burn-rate alert: the moment an objective's short and
// long horizons both crossed a severity threshold it was not already
// at.
type Alert struct {
	// Window is the index of the window whose close fired the alert;
	// At is that window's end time.
	Window    int
	At        time.Duration
	Objective string
	// Severity is "page" or "warn".
	Severity string
	// Short and Long are the burn rates over the two horizons when the
	// alert fired (1.0 = burning the budget exactly as fast as the
	// target allows).
	Short, Long float64
}

// BurnSample is one window's burn-rate evaluation, kept when the
// monitor is asked to retain history (the simulator path, for Chrome
// counter tracks).
type BurnSample struct {
	Window      int
	Objective   string
	Short, Long float64
}

// winCount is one window's good/bad tally inside an objState ring.
type winCount struct {
	tag       int
	good, bad float64
}

type objState struct {
	obj      Objective
	ring     []winCount // len = monitor Long horizon
	good     float64    // run totals
	bad      float64
	severity int // 0 ok, 1 warn, 2 page — current sustained level
	pages    int
	warns    int
	// lastShort/lastLong are the most recent horizon burn rates — the
	// dashboard's live read.
	lastShort, lastLong float64
}

// Monitor evaluates SLO error-budget burn rates over two horizons — the
// multiwindow burn-rate alerting rule: a short horizon catches fast
// burns quickly, the long horizon keeps slow burns from hiding between
// spikes, and requiring both to breach suppresses one-window blips.
// Feed it closed recorder rows via OnRow (wire it as, or inside, the
// recorder's OnClose sink).
type Monitor struct {
	// Objectives are the monitored SLOs.
	Objectives []Objective
	// Window is the recorder's window width (for alert timestamps).
	Window time.Duration
	// Short and Long are the burn horizons in windows (defaults 4, 24).
	Short, Long int
	// Page and Warn are the burn-rate thresholds (defaults 10, 2): page
	// when both horizons burn ≥ Page, warn at ≥ Warn.
	Page, Warn float64
	// KeepHistory retains per-window burn samples (Burns) — bounded by
	// run length, so enable it only on the finite simulator path.
	KeepHistory bool

	mu     sync.Mutex
	states []*objState
	alerts []Alert
	burns  []BurnSample
}

// NewMonitor returns a monitor over the given objectives with the
// default horizons and thresholds.
func NewMonitor(objectives []Objective, window time.Duration) *Monitor {
	return &Monitor{
		Objectives: objectives,
		Window:     window,
		Short:      4,
		Long:       24,
		Page:       10,
		Warn:       2,
	}
}

func (m *Monitor) initLocked() {
	if m.states != nil {
		return
	}
	if m.Short <= 0 {
		m.Short = 4
	}
	if m.Long < m.Short {
		m.Long = max(24, m.Short)
	}
	if m.Page <= 0 {
		m.Page = 10
	}
	if m.Warn <= 0 {
		m.Warn = 2
	}
	for _, o := range m.Objectives {
		ring := make([]winCount, m.Long)
		for i := range ring {
			ring[i].tag = -1
		}
		m.states = append(m.states, &objState{obj: o, ring: ring})
	}
}

// Match reports whether the objective covers a request for model, and
// whether the request breached it (rejected, or over the threshold).
func (o Objective) Match(model string, latency time.Duration, rejected bool) (covered, breached bool) {
	if o.Model != "" && o.Model != model {
		return false, false
	}
	return true, rejected || latency > o.Latency
}

// OnRow consumes one closed recorder row: it reads each objective's
// good/bad counters, updates the burn horizons, and fires alerts on
// severity transitions. Rows must arrive in index order (the recorder
// guarantees this).
func (m *Monitor) OnRow(row Row) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.initLocked()
	for _, st := range m.states {
		good := row.Counters[GoodSeries(st.obj)]
		bad := row.Counters[BadSeries(st.obj)]
		st.good += good
		st.bad += bad
		slot := row.Index % m.Long
		st.ring[slot] = winCount{tag: row.Index, good: good, bad: bad}

		short := m.burnLocked(st, row.Index, m.Short)
		long := m.burnLocked(st, row.Index, m.Long)
		st.lastShort, st.lastLong = short, long
		if m.KeepHistory {
			m.burns = append(m.burns, BurnSample{
				Window: row.Index, Objective: st.obj.Name(), Short: short, Long: long,
			})
		}
		level := 0
		switch {
		case short >= m.Page && long >= m.Page:
			level = 2
		case short >= m.Warn && long >= m.Warn:
			level = 1
		}
		if level > st.severity {
			sev := "warn"
			if level == 2 {
				sev = "page"
			}
			if level == 2 {
				st.pages++
			} else {
				st.warns++
			}
			m.alerts = append(m.alerts, Alert{
				Window:    row.Index,
				At:        time.Duration(row.Index+1) * m.Window,
				Objective: st.obj.Name(),
				Severity:  sev,
				Short:     short,
				Long:      long,
			})
		}
		st.severity = level
	}
}

// burnLocked computes the burn rate over the lastN windows ending at
// cur: (bad / (good+bad)) / error budget. No traffic burns nothing.
func (m *Monitor) burnLocked(st *objState, cur, lastN int) float64 {
	var good, bad float64
	for w := max(cur-lastN+1, 0); w <= cur; w++ {
		c := st.ring[w%m.Long]
		if c.tag == w {
			good += c.good
			bad += c.bad
		}
	}
	total := good + bad
	if total == 0 {
		return 0
	}
	budget := st.obj.Budget()
	if budget <= 0 {
		return 0
	}
	return (bad / total) / budget
}

// ObjectiveSummary is one objective's end-of-run accounting.
type ObjectiveSummary struct {
	Objective  Objective
	Good, Bad  float64
	Compliance float64 // good / (good+bad); 1 with no traffic
	BudgetUsed float64 // bad over the whole run ÷ allowed bad
	Pages      int
	Warns      int
	Pass       bool
}

// Summaries returns the per-objective accounting, in Objectives order.
func (m *Monitor) Summaries() []ObjectiveSummary {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.initLocked()
	out := make([]ObjectiveSummary, 0, len(m.states))
	for _, st := range m.states {
		s := ObjectiveSummary{
			Objective:  st.obj,
			Good:       st.good,
			Bad:        st.bad,
			Compliance: 1,
			Pages:      st.pages,
			Warns:      st.warns,
		}
		if total := st.good + st.bad; total > 0 {
			s.Compliance = st.good / total
			if b := st.obj.Budget(); b > 0 {
				s.BudgetUsed = (st.bad / total) / b
			}
		}
		s.Pass = s.Compliance >= st.obj.Target
		out = append(out, s)
	}
	return out
}

// Alerts returns the fired alerts, in firing order.
func (m *Monitor) Alerts() []Alert {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Alert(nil), m.alerts...)
}

// Burns returns the retained per-window burn samples (KeepHistory).
func (m *Monitor) Burns() []BurnSample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]BurnSample(nil), m.burns...)
}

// CurrentBurn returns the latest evaluated burn rates per objective
// name — the dashboard's live read. Objectives with no evaluated
// windows yet report zeros.
func (m *Monitor) CurrentBurn() map[string][2]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.initLocked()
	out := make(map[string][2]float64, len(m.states))
	for _, st := range m.states {
		out[st.obj.Name()] = [2]float64{st.lastShort, st.lastLong}
	}
	return out
}

// Export writes the monitor's state into a metrics registry as
// aitax_slo_* series.
func (m *Monitor) Export(reg *telemetry.Registry) {
	for _, s := range m.Summaries() {
		name := s.Objective.Name()
		reg.Add(telemetry.Labeled("aitax_slo_good_total", "objective", name), s.Good)
		reg.Add(telemetry.Labeled("aitax_slo_bad_total", "objective", name), s.Bad)
		reg.Set(telemetry.Labeled("aitax_slo_compliance", "objective", name), s.Compliance)
		reg.Set(telemetry.Labeled("aitax_slo_budget_used", "objective", name), s.BudgetUsed)
		reg.Add(telemetry.Labeled("aitax_slo_alerts_total", "objective", name, "severity", "page"), float64(s.Pages))
		reg.Add(telemetry.Labeled("aitax_slo_alerts_total", "objective", name, "severity", "warn"), float64(s.Warns))
	}
}

// WriteReport renders the pass/fail SLO section appended to the load
// report — deterministic, golden-diffed in CI. Burn rate 1.0 means the
// error budget is being spent exactly as fast as the target allows.
func (m *Monitor) WriteReport(w io.Writer) {
	m.mu.Lock()
	m.initLocked()
	short, long, page, warn := m.Short, m.Long, m.Page, m.Warn
	m.mu.Unlock()

	fmt.Fprintf(w, "\nslo (windows of %s; page when %d- and %d-window burn >= %s, warn >= %s)\n",
		m.Window, short, long, trimFloat(page), trimFloat(warn))
	for _, s := range m.Summaries() {
		verdict := "PASS"
		if !s.Pass {
			verdict = "FAIL"
		}
		fmt.Fprintf(w, "  %-24s %-12s %s  compliance %7.3f%%  budget used %6.1f%%  good %.0f bad %.0f  pages %d warns %d\n",
			s.Objective.Name(), s.Objective.describe(), verdict,
			s.Compliance*100, s.BudgetUsed*100, s.Good, s.Bad, s.Pages, s.Warns)
	}
	alerts := m.Alerts()
	sortAlerts(alerts)
	if len(alerts) == 0 {
		fmt.Fprintf(w, "  alerts: none\n")
		return
	}
	fmt.Fprintf(w, "  alerts (%d):\n", len(alerts))
	for _, a := range alerts {
		fmt.Fprintf(w, "    t=%-10s %-4s %-24s short %5.1fx long %5.1fx\n",
			a.At, a.Severity, a.Objective, a.Short, a.Long)
	}
}

// sortAlerts orders alerts by (window, objective) — already firing
// order, kept for safety when merging sources.
func sortAlerts(alerts []Alert) {
	sort.SliceStable(alerts, func(i, j int) bool {
		if alerts[i].Window != alerts[j].Window {
			return alerts[i].Window < alerts[j].Window
		}
		return alerts[i].Objective < alerts[j].Objective
	})
}
