package obs

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives("MobileNet 1.0 v1=250ms@99, all=1s@99.9")
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Fatalf("got %d objectives", len(objs))
	}
	if objs[0].Model != "MobileNet 1.0 v1" || objs[0].Latency != 250*time.Millisecond || objs[0].Target != 0.99 {
		t.Fatalf("objs[0] = %+v", objs[0])
	}
	if objs[1].Model != "" || objs[1].Latency != time.Second || objs[1].Target != 0.999 {
		t.Fatalf("objs[1] = %+v", objs[1])
	}
	if objs[1].Name() != "all models" {
		t.Fatalf("aggregate name %q", objs[1].Name())
	}
	for _, bad := range []string{
		"", "nomodel", "m=250ms", "m=@99", "m=250ms@", "m=0s@99", "m=1s@0", "m=1s@100", "m=1s@146",
		// NaN compares false against both range bounds; without the
		// explicit check it parses into a degenerate objective.
		"m=1s@NaN", "m=1s@nan", "m=1s@-5", "m=-1s@99",
		// Percentages that round to a fraction of 0 or 1.
		"m=1s@99.99999999999999", "m=1s@1e-11",
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		} else if !errors.Is(err, ErrBadObjective) {
			t.Errorf("spec %q: error %v does not wrap ErrBadObjective", bad, err)
		}
	}
}

func FuzzParseObjectives(f *testing.F) {
	for _, seed := range []string{
		"MobileNet 1.0 v1=250ms@99, all=1s@99.9", "*=1h@50", "m=1s@NaN",
		"m=1s@99.99999999999999", "m=1s@1e-11", "m=0s@99", "m=1s", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		objs, err := ParseObjectives(spec)
		if err != nil {
			if !errors.Is(err, ErrBadObjective) {
				t.Fatalf("ParseObjectives(%q): error %v does not wrap ErrBadObjective", spec, err)
			}
			return
		}
		for _, o := range objs {
			if o.Latency <= 0 || !(o.Target > 0 && o.Target < 1) {
				t.Fatalf("ParseObjectives(%q) yielded out-of-range objective %+v", spec, o)
			}
		}
	})
}

func TestObjectiveMatch(t *testing.T) {
	o := Objective{Model: "A", Latency: 100 * time.Millisecond, Target: 0.99}
	if cov, _ := o.Match("B", 10*time.Millisecond, false); cov {
		t.Fatal("matched wrong model")
	}
	if _, br := o.Match("A", 10*time.Millisecond, false); br {
		t.Fatal("fast request breached")
	}
	if _, br := o.Match("A", 150*time.Millisecond, false); !br {
		t.Fatal("slow request did not breach")
	}
	if _, br := o.Match("A", 10*time.Millisecond, true); !br {
		t.Fatal("rejected request did not breach")
	}
	all := Objective{Latency: time.Second, Target: 0.9}
	if cov, _ := all.Match("anything", 0, false); !cov {
		t.Fatal("aggregate objective must cover every model")
	}
}

// feed pushes a run of windows with the given per-window good/bad
// counts through the monitor.
func feed(m *Monitor, obj Objective, startWin int, wins int, good, bad float64) {
	for w := startWin; w < startWin+wins; w++ {
		m.OnRow(Row{
			Index: w,
			Counters: map[string]float64{
				GoodSeries(obj): good,
				BadSeries(obj):  bad,
			},
		})
	}
}

func TestMonitorPagesOnSustainedBurnNotOnBlip(t *testing.T) {
	obj := Objective{Model: "A", Latency: 100 * time.Millisecond, Target: 0.99}
	m := NewMonitor([]Objective{obj}, 250*time.Millisecond)

	// Healthy traffic: no alerts.
	feed(m, obj, 0, 24, 100, 0)
	if got := m.Alerts(); len(got) != 0 {
		t.Fatalf("healthy traffic alerted: %+v", got)
	}

	// One bad window (50% errors, burn 50x short-term) must not page:
	// the long horizon stays under threshold. It may warn.
	feed(m, obj, 24, 1, 50, 50)
	for _, a := range m.Alerts() {
		if a.Severity == "page" {
			t.Fatalf("single-window blip paged: %+v", a)
		}
	}

	// Sustained 50% errors: both horizons cross Page=10 and exactly one
	// page fires (severity transition, no re-fire while sustained).
	feed(m, obj, 25, 23, 50, 50)
	var pages []Alert
	for _, a := range m.Alerts() {
		if a.Severity == "page" {
			pages = append(pages, a)
		}
	}
	if len(pages) != 1 {
		t.Fatalf("want exactly 1 page, got %+v", pages)
	}
	if pages[0].Short < 10 || pages[0].Long < 10 {
		t.Fatalf("page fired below threshold: %+v", pages[0])
	}

	s := m.Summaries()[0]
	if s.Pass {
		t.Fatal("run with sustained 50% errors must fail the SLO")
	}
	if s.Good != 24*100+24*50 || s.Bad != 24*50 {
		t.Fatalf("good/bad accounting: %+v", s)
	}
	cb := m.CurrentBurn()[obj.Name()]
	if cb[0] < 10 || cb[1] < 10 {
		t.Fatalf("CurrentBurn = %v, want both horizons >= 10", cb)
	}
}

func TestMonitorRecoversAndCanRePage(t *testing.T) {
	obj := Objective{Model: "A", Latency: time.Millisecond, Target: 0.9}
	m := NewMonitor([]Objective{obj}, 250*time.Millisecond)
	feed(m, obj, 0, 24, 0, 100) // total burn: 100% errors, budget 0.1 → 10x
	feed(m, obj, 24, 48, 100, 0)
	feed(m, obj, 72, 24, 0, 100)
	var pages int
	for _, a := range m.Alerts() {
		if a.Severity == "page" {
			pages++
		}
	}
	if pages != 2 {
		t.Fatalf("want a second page after recovery, got %d", pages)
	}
}

// TestMonitorReArmUnderConcurrentReads replays the recover-and-re-page
// sequence while reader goroutines hammer Summaries/CurrentBurn/Alerts.
// Under -race this proves the monitor's mutex covers the severity
// re-arm path, not just the happy path.
func TestMonitorReArmUnderConcurrentReads(t *testing.T) {
	obj := Objective{Model: "A", Latency: time.Millisecond, Target: 0.9}
	m := NewMonitor([]Objective{obj}, 250*time.Millisecond)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				m.Summaries()
				m.CurrentBurn()
				m.Alerts()
			}
		}()
	}

	feed(m, obj, 0, 24, 0, 100)  // burn: page
	feed(m, obj, 24, 48, 100, 0) // recover: re-arm
	feed(m, obj, 72, 24, 0, 100) // burn again: second page
	close(stop)
	wg.Wait()

	var pages int
	for _, a := range m.Alerts() {
		if a.Severity == "page" {
			pages++
		}
	}
	if pages != 2 {
		t.Fatalf("want a second page after recovery under concurrent reads, got %d", pages)
	}
}

func TestMonitorGapWindowsCountAsIdle(t *testing.T) {
	obj := Objective{Model: "A", Latency: time.Millisecond, Target: 0.99}
	m := NewMonitor([]Objective{obj}, 250*time.Millisecond)
	// Rows 0 and 30 with a gap: the ring must not resurrect window 0's
	// counts into window 30's horizon (tags prevent it).
	m.OnRow(Row{Index: 0, Counters: map[string]float64{BadSeries(obj): 100}})
	m.OnRow(Row{Index: 30, Counters: map[string]float64{GoodSeries(obj): 100}})
	cb := m.CurrentBurn()[obj.Name()]
	if cb[0] != 0 || cb[1] != 0 {
		t.Fatalf("stale window leaked into burn: %v", cb)
	}
}

func TestWriteReportDeterministic(t *testing.T) {
	obj := Objective{Model: "MobileNet 1.0 v1", Latency: 250 * time.Millisecond, Target: 0.99}
	render := func() string {
		m := NewMonitor([]Objective{obj}, 250*time.Millisecond)
		feed(m, obj, 0, 10, 99, 1)
		var sb strings.Builder
		m.WriteReport(&sb)
		return sb.String()
	}
	first := render()
	if first != render() {
		t.Fatal("report not deterministic")
	}
	for _, want := range []string{"MobileNet 1.0 v1", "99% < 250ms", "PASS", "good 990 bad 10"} {
		if !strings.Contains(first, want) {
			t.Fatalf("report missing %q:\n%s", want, first)
		}
	}
}
