package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	taxcore "aitax/internal/core"
	"aitax/internal/loadgen"
	"aitax/internal/obs"
	"aitax/internal/sim"
)

// simObsFixture runs a small overloaded load simulation and builds its
// observability view.
func simObsFixture(t *testing.T, objectives []obs.Objective) (*SimResult, *SimObs, Config) {
	t.Helper()
	cfg := testConfig(t)
	cfg.Models = DefaultModels()[:1]
	cfg.QueueDepth = 2
	cfg.Workers = 1
	spec := loadgen.Spec{
		Seed:   7,
		Phases: []loadgen.Phase{{QPS: 200, Duration: 300 * time.Millisecond}},
		Mix:    []loadgen.Share{{Model: cfg.Models[0].Name, Weight: 1}},
	}
	arrivals, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	table, err := BuildCostTable(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(cfg, table, arrivals, false)
	if err != nil {
		t.Fatal(err)
	}
	return res, BuildSimObs(cfg, res, 0, objectives), cfg
}

func TestBuildSimObsAccountsEveryRequest(t *testing.T) {
	objs := []obs.Objective{{Latency: 5 * time.Millisecond, Target: 0.95}}
	res, so, _ := simObsFixture(t, objs)

	var offered, served, rejected, good, bad float64
	all := obs.SeriesFor(obs.AllModels)
	for _, row := range so.Rows {
		offered += row.Counters[all.Offered]
		served += row.Counters[all.Served]
		rejected += row.Counters[all.Rejected]
		good += row.Counters[obs.GoodSeries(objs[0])]
		bad += row.Counters[obs.BadSeries(objs[0])]
	}
	var wantServed, wantRejected float64
	for _, o := range res.Outcomes {
		if o.Rejected {
			wantRejected++
		} else {
			wantServed++
		}
	}
	if offered != wantServed+wantRejected || served != wantServed || rejected != wantRejected {
		t.Fatalf("rows account offered %g served %g rejected %g; want %g/%g/%g",
			offered, served, rejected, wantServed+wantRejected, wantServed, wantRejected)
	}
	// Every offered request is scored against the aggregate objective,
	// exactly once.
	if good+bad != offered {
		t.Fatalf("slo scored %g of %g offered", good+bad, offered)
	}
	if so.Monitor == nil {
		t.Fatal("objectives given but no monitor built")
	}
	sum := so.Monitor.Summaries()[0]
	if sum.Good != good || sum.Bad != bad {
		t.Fatalf("monitor totals %g/%g diverge from rows %g/%g", sum.Good, sum.Bad, good, bad)
	}
}

func TestBuildSimObsStageAnatomyMatchesOutcomes(t *testing.T) {
	res, so, _ := simObsFixture(t, nil)
	var wantPre, wantPost time.Duration
	for _, o := range res.Outcomes {
		if !o.Rejected {
			wantPre += o.Stages.Stage[taxcore.StagePre]
			wantPost += o.Stages.Stage[taxcore.StagePost]
		}
	}
	var gotPre, gotPost float64
	for _, row := range so.Rows {
		for i, st := range obs.Stages {
			switch st {
			case taxcore.StagePre:
				gotPre += row.Counters[obs.StageSeries[i]]
			case taxcore.StagePost:
				gotPost += row.Counters[obs.StageSeries[i]]
			}
		}
	}
	if wantPre == 0 {
		t.Fatal("outcomes carry no pre-processing time; BatchCost.Sum not plumbed")
	}
	tol := 1e-6
	if diff := gotPre - ms(wantPre); diff > tol || diff < -tol {
		t.Fatalf("pre stage: rows %g ms, outcomes %g ms", gotPre, ms(wantPre))
	}
	if diff := gotPost - ms(wantPost); diff > tol || diff < -tol {
		t.Fatalf("post stage: rows %g ms, outcomes %g ms", gotPost, ms(wantPost))
	}
}

func TestSimObsSnapshotDeterministic(t *testing.T) {
	objs := []obs.Objective{{Latency: 5 * time.Millisecond, Target: 0.95}}
	_, so1, _ := simObsFixture(t, objs)
	_, so2, _ := simObsFixture(t, objs)
	if so1.Snapshot() != so2.Snapshot() {
		t.Fatal("snapshot not deterministic across identical runs")
	}
	if !strings.Contains(so1.Snapshot(), "tax anatomy ms/req:") {
		t.Fatalf("snapshot missing anatomy line:\n%s", so1.Snapshot())
	}
}

func TestHTTPMetricsContentTypeAndRuntime(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "text/plain; version=0.0.4; charset=utf-8" {
		t.Fatalf("/metrics Content-Type = %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"aitax_runtime_heap_alloc_bytes", "aitax_runtime_goroutines",
		"# TYPE aitax_runtime_gc_total counter", "# TYPE aitax_runtime_gc_pause_total_ms counter"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}
}

// /metrics publishes counters as Prometheus counters: a scrape must not
// move one. Two scrapes with no traffic between them read the same
// serving and SLO counters, no _total ever decreases, and the SLO
// totals equal the monitor's (each scrape used to add them again).
func TestHTTPMetricsScrapesAreIdempotent(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.SLO = []obs.Objective{{Latency: 10 * time.Second, Target: 0.5}}
		c.ObsWindow = 10 * time.Millisecond
	})
	scrape := func() map[string]float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		totals := make(map[string]float64)
		for _, line := range strings.Split(string(body), "\n") {
			i := strings.LastIndexByte(line, ' ')
			if strings.HasPrefix(line, "#") || i < 0 || !strings.Contains(line[:i], "_total") {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("bad sample line %q: %v", line, err)
			}
			totals[line[:i]] = v
		}
		return totals
	}
	good := `aitax_slo_good_total{objective="all models"}`
	var last map[string]float64
	served := 0
	for _, requests := range []int{3, 1} {
		// Flushed windows take no more observations: start a new one.
		time.Sleep(2 * srv.rec.Window())
		for ; requests > 0; requests-- {
			served++
			if _, out := postJSON(t, ts.URL+"/v1/classify", `{}`); out["error"] != nil {
				t.Fatalf("classify failed: %v", out["error"])
			}
		}
		srv.rec.Flush() // close the windows, so the monitor counts them
		first, second := scrape(), scrape()
		for name, v := range first {
			if !strings.HasPrefix(name, "aitax_runtime_") && second[name] != v {
				t.Errorf("%s: %g, then %g with no traffic between the scrapes", name, v, second[name])
			}
			if v < last[name] {
				t.Errorf("%s decreased from %g to %g", name, last[name], v)
			}
		}
		if want := srv.mon.Summaries()[0].Good; second[good] != want || want != float64(served) {
			t.Errorf("%s = %g after two scrapes; the monitor counted %g of %d served", good, second[good], want, served)
		}
		last = second
	}
}

func TestHTTPRetryAfterDerivedFromWindow(t *testing.T) {
	if got := retryAfterSeconds(0); got != "1" {
		t.Fatalf("zero window Retry-After = %s, want 1", got)
	}
	if got := retryAfterSeconds(2 * time.Millisecond); got != "1" {
		t.Fatalf("2ms window Retry-After = %s, want 1 (floor)", got)
	}
	if got := retryAfterSeconds(2500 * time.Millisecond); got != "3" {
		t.Fatalf("2.5s window Retry-After = %s, want 3 (ceil)", got)
	}
	srv, _ := newTestServer(t, func(c *Config) { c.BatchWindow = 3 * time.Second })
	if srv.retryAfter != "3" {
		t.Fatalf("server Retry-After = %s, want 3", srv.retryAfter)
	}
}

func TestHTTPSLOEndpoint(t *testing.T) {
	// Without objectives: 404.
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/slo without SLOs: status %d, want 404", resp.StatusCode)
	}

	_, ts2 := newTestServer(t, func(c *Config) {
		c.SLO = []obs.Objective{{Latency: 10 * time.Second, Target: 0.5}}
	})
	if _, out := postJSON(t, ts2.URL+"/v1/classify", `{}`); out["error"] != nil {
		t.Fatalf("classify failed: %v", out["error"])
	}
	resp2, err := http.Get(ts2.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var got []map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0]["objective"] != "all models" {
		t.Fatalf("/v1/slo = %v", got)
	}
}

func TestHTTPPprofMounted(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", resp.StatusCode)
	}
}

func TestHTTPWatchRendersLiveTraffic(t *testing.T) {
	srv, ts := newTestServer(t, nil)
	if _, out := postJSON(t, ts.URL+"/v1/classify", `{}`); out["error"] != nil {
		t.Fatalf("classify failed: %v", out["error"])
	}
	watch := srv.Watch()
	for _, want := range []string{"MobileNet 1.0 v1", "tax anatomy ms/req:"} {
		if !strings.Contains(watch, want) {
			t.Fatalf("watch output missing %q:\n%s", want, watch)
		}
	}
}

// The record path both harnesses share resolves every series name up
// front: once the recorder holds its series, recording a served, a
// rejected and a shed request allocates nothing.
func TestRecordPathDoesNotAllocate(t *testing.T) {
	cfg := testConfig(t)
	model := cfg.Models[0].Name
	rec := obs.NewRecorder(obs.RecorderConfig{})
	series := newSeriesTable(rec, cfg, []obs.Objective{
		{Latency: 5 * time.Millisecond, Target: 0.95},
		{Model: model, Latency: time.Millisecond, Target: 0.99},
	})
	m := series.model(model)
	served := Outcome{
		Model: model, BatchSize: 2, Flushed: sim.Time(time.Millisecond),
		Started: sim.Time(2 * time.Millisecond), Finished: sim.Time(9 * time.Millisecond),
	}
	rejected := Outcome{Model: model, Rejected: true}
	shed := Outcome{Model: model, Shed: true}
	at := 100 * time.Millisecond
	record := func() {
		series.recordOffered(m, &served, at)
		series.recordServed(m, &served, at)
		series.recordBurn(&served, at)
		series.recordOffered(m, &rejected, at)
		series.recordOffered(m, &shed, at)
	}
	record() // create every series
	if n := testing.AllocsPerRun(100, record); n != 0 {
		t.Fatalf("record path allocates %v times per call, want 0", n)
	}
}
