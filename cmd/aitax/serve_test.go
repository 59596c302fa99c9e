package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aitax"
	"aitax/internal/app"
	"aitax/internal/models"
	"aitax/internal/plan"
	"aitax/internal/qos"
	"aitax/internal/serve"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func TestGoldenLoadReportAtAnyParallelism(t *testing.T) {
	out := goldenAtAnyParallelism(t, []string{"-loadgen"}, "load_report.golden")
	// The serving tax the report claims must actually be there: the
	// overload phase rejects, and queueing shows up in the tax columns.
	if !strings.Contains(out, "rejected") || strings.Contains(out, " 0 of 172 rejected") {
		t.Fatal("golden run shows no admission rejections under the overload phase")
	}
}

// goldenAtAnyParallelism runs args at -parallel 1/2/8 and at the
// default width, and asserts the stdout is identical across widths and
// matches the committed golden.
func goldenAtAnyParallelism(t *testing.T, args []string, golden string) string {
	t.Helper()
	var outputs []string
	for _, par := range []string{"1", "2", "8", ""} {
		full := append([]string{}, args...)
		if par != "" {
			full = append(full, "-parallel", par)
		}
		outputs = append(outputs, runCmd(t, runServe, full...))
	}
	for _, o := range outputs[1:] {
		if o != outputs[0] {
			t.Fatalf("%s output differs across -parallel 1/2/8/default", golden)
		}
	}
	checkGolden(t, outputs[0], golden)
	return outputs[0]
}

func TestGoldenSLOReportAtAnyParallelism(t *testing.T) {
	out := goldenAtAnyParallelism(t,
		[]string{"-loadgen", "-slo", "MobileNet 1.0 v1=4ms@95,all=6ms@90"},
		"slo_report.golden")
	for _, want := range []string{"slo (windows of 250ms", "burn", "alerts"} {
		if !strings.Contains(out, want) {
			t.Fatalf("SLO report missing %q:\n%s", want, out)
		}
	}
}

func TestGoldenWatchSnapshotAtAnyParallelism(t *testing.T) {
	out := goldenAtAnyParallelism(t,
		[]string{"-loadgen", "-slo", "MobileNet 1.0 v1=4ms@95,all=6ms@90", "-watch"},
		"watch_snapshot.golden")
	for _, want := range []string{"aitax-serve  t=", "tax anatomy ms/req:", "p99 trend"} {
		if !strings.Contains(out, want) {
			t.Fatalf("watch snapshot missing %q:\n%s", want, out)
		}
	}
}

func TestGoldenBrownoutReportAtAnyParallelism(t *testing.T) {
	out := goldenAtAnyParallelism(t, brownoutArgs, "brownout_report.golden")
	for _, want := range []string{
		"degradation anatomy (brownout controller active",
		"L0->L1", "L2->L3", "L1->L0",
		"per-class latency",
		"best-effort",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("brownout report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "shed 0 best-effort") {
		t.Fatal("golden storm shed no best-effort traffic")
	}
}

func TestBrownoutTraceHasQoSMarkers(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	runCmd(t, runServe, append(append([]string{}, brownoutArgs...), "-trace", chrome)...)
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(readFile(t, chrome)), &doc); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	var levelCounters, qosInstants int
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" && e.Name == "qos level" {
			levelCounters++
		}
		if e.Ph == "i" && strings.HasPrefix(e.Name, "qos L") {
			qosInstants++
		}
	}
	if levelCounters < 2 {
		t.Fatalf("qos level counter track has %d points, want the ladder timeline", levelCounters)
	}
	if qosInstants == 0 {
		t.Fatal("no qos transition instants in the trace")
	}
}

// The brownout storm's -metrics and -trace exports pin event order,
// span order and per-series observation order, which the text report
// does not.
func TestGoldenBrownoutExports(t *testing.T) {
	dir := t.TempDir()
	metrics := filepath.Join(dir, "metrics.prom")
	chrome := filepath.Join(dir, "trace.json")
	runCmd(t, runServe, append(append([]string{}, brownoutArgs...), "-metrics", metrics, "-trace", chrome)...)
	checkGolden(t, readFile(t, metrics), "brownout_metrics.golden")
	checkGolden(t, readFile(t, chrome), "brownout_trace.golden")
}

// The brownout storm conserves requests: per model, offered = served +
// rejected + shed, and the registry's request, rejection, shed and
// batch counters agree with the outcomes they summarize.
func TestBrownoutStormConservesRequests(t *testing.T) {
	o, code := parseServe(brownoutArgs, io.Discard)
	if o == nil {
		t.Fatalf("brownout flags: exit %d", code)
	}
	arrivals, err := o.arrivals()
	if err != nil {
		t.Fatal(err)
	}
	table, err := serve.BuildCostTable(context.Background(), o.cfg, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := serve.Simulate(o.cfg, table, arrivals, false)
	if err != nil {
		t.Fatal(err)
	}
	type tally struct{ offered, served, rejected, shed int }
	perModel := map[string]*tally{}
	shedByClass := map[qos.Class]int{}
	ridersBySize := map[int]int{}
	for _, oc := range res.Outcomes {
		c := perModel[oc.Model]
		if c == nil {
			c = &tally{}
			perModel[oc.Model] = c
		}
		c.offered++
		switch {
		case oc.Shed:
			c.shed++
			shedByClass[oc.Class]++
		case oc.Rejected:
			c.rejected++
		default:
			c.served++
			ridersBySize[oc.BatchSize]++
		}
	}
	counter := func(name, label, value string) int {
		return int(res.Metrics.Counter(telemetry.Labeled(name, label, value)))
	}
	for model, c := range perModel {
		if c.offered != c.served+c.rejected+c.shed {
			t.Errorf("%s: offered %d != served %d + rejected %d + shed %d", model, c.offered, c.served, c.rejected, c.shed)
		}
		if got := counter("aitax_serve_requests_total", "model", model); got != c.offered {
			t.Errorf("%s: requests_total %d, outcomes offered %d", model, got, c.offered)
		}
		if got := counter("aitax_serve_rejected_total", "model", model); got != c.rejected {
			t.Errorf("%s: rejected_total %d, outcomes rejected %d", model, got, c.rejected)
		}
	}
	if shedByClass[qos.BestEffort] == 0 {
		t.Fatal("the storm shed nothing: conservation untested on the shed path")
	}
	for cls := qos.Class(0); cls < qos.NumClasses; cls++ {
		if got := counter("aitax_qos_shed_total", "class", cls.String()); got != shedByClass[cls] {
			t.Errorf("%s: qos_shed_total %d, outcomes shed %d", cls, got, shedByClass[cls])
		}
	}
	batches := 0
	for _, b := range res.Batches {
		batches += b.Batches
		if got := counter("aitax_serve_batches_total", "model", b.Model); got != b.Batches {
			t.Errorf("%s: batches_total %d, result %d", b.Model, got, b.Batches)
		}
	}
	derived := 0
	for k, riders := range ridersBySize {
		if riders%k != 0 {
			t.Fatalf("%d riders in batches of %d", riders, k)
		}
		derived += riders / k
	}
	if derived != batches {
		t.Fatalf("outcomes imply %d batches, result counts %d", derived, batches)
	}
}

func TestObsExports(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "rows.jsonl")
	chrome := filepath.Join(dir, "trace.json")
	runCmd(t, runServe, "-loadgen", "-ramp", "40x250ms", "-seed", "9",
		"-slo", "all=5ms@95", "-obs", jsonl, "-trace", chrome)

	var sawLatency bool
	for _, line := range strings.Split(strings.TrimSpace(readFile(t, jsonl)), "\n") {
		var row struct {
			Window  int                        `json:"window"`
			EndMS   float64                    `json:"end_ms"`
			Hists   map[string]json.RawMessage `json:"hists"`
			Counter map[string]float64         `json:"counters"`
		}
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("bad JSONL row %q: %v", line, err)
		}
		if _, ok := row.Hists[`latency_ms{model="all"}`]; ok {
			sawLatency = true
		}
	}
	if !sawLatency {
		t.Fatal("no aggregate latency histogram in any JSONL row")
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(readFile(t, chrome)), &doc); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	var taxCounters, sloInstants int
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" && strings.HasPrefix(e.Name, "tax ") {
			taxCounters++
		}
		if e.Ph == "i" && strings.HasPrefix(e.Name, "slo ") {
			sloInstants++
		}
	}
	if taxCounters == 0 {
		t.Fatal("no per-window tax counter tracks in the trace")
	}
	if sloInstants == 0 {
		t.Fatal("no SLO alert instants in the trace (the overloaded run must page)")
	}
}

func TestExportsDoNotPerturbReport(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "trace.json")
	prom := filepath.Join(dir, "metrics.prom")
	base := []string{"-loadgen", "-ramp", "40x250ms", "-seed", "9"}

	plain := runCmd(t, runServe, base...)
	traced := runCmd(t, runServe, append(append([]string{}, base...), "-trace", chrome, "-metrics", prom)...)
	if plain != traced {
		t.Fatalf("-trace/-metrics perturbed the report\n--- plain ---\n%s\n--- traced ---\n%s", plain, traced)
	}

	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(readFile(t, chrome)), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	var depthCounters int
	for _, e := range doc.TraceEvents {
		if e.Ph == "C" && strings.HasPrefix(e.Name, "queue depth ") {
			depthCounters++
		}
	}
	if depthCounters == 0 {
		t.Fatal("no queue-depth counter events in the trace")
	}

	promText := readFile(t, prom)
	for _, want := range []string{"aitax_serve_requests_total", "aitax_serve_latency_ms"} {
		if !strings.Contains(promText, want) {
			t.Fatalf("metrics file missing %s", want)
		}
	}
}

func TestBadFlagsFailCleanly(t *testing.T) {
	cases := [][]string{
		{"-loadgen", "-ramp", "fast"},
		{"-loadgen", "-mix", "No Such Model=x"},
		{"-loadgen", "-mix", "No Such Model"},
		{"-models", "No Such Model"},
		{"-entry", "ui"},
		{"-platform", "No Such Phone"},
		{"-loadgen", "-dtype", "int8"}, // Deeplab has no quantized variant
		{"-loadgen", "-slo", "all=6ms@x"},
		{"-loadgen", "-slo", "No Such Model=4ms@95"},
		// QoS flag validation: bad ladder spec, qos without an SLO, steer
		// colliding with the serving delegate, downshift to an unloaded
		// model, satellite flags without -qos, and a bad thermal spec.
		{"-loadgen", "-slo", "all=6ms@90", "-qos", "tick=-5ms"},
		{"-loadgen", "-slo", "all=6ms@90", "-qos", "enter=0.5/0.4/0.9"},
		{"-loadgen", "-qos", "on"},
		{"-loadgen", "-slo", "all=6ms@90", "-qos", "on", "-steer", "nnapi"},
		{"-loadgen", "-slo", "all=6ms@90", "-qos", "on", "-downshift", "MobileNet 1.0 v1=AlexNet"},
		{"-loadgen", "-slo", "all=6ms@90", "-downshift", "A=B"},
		{"-loadgen", "-qos-observe"},
		{"-loadgen", "-slo", "all=6ms@90", "-qos", "on", "-thermal", "max=10"},
	}
	for _, args := range cases {
		code, stderr := runCode(runServe, args...)
		if code == 0 {
			t.Errorf("%v succeeded, want failure", args)
		}
		if stderr == "" {
			t.Errorf("%v failed silently", args)
		}
	}
}

// firstRequest boots a server for cfg (optionally prewarmed), fires one
// classification request at it, and returns the request's wall-clock
// latency plus the plan-compile time and plan-cache misses it incurred.
func firstRequest(t *testing.T, cfg serve.Config, prewarm bool) (lat, compile time.Duration, misses int64) {
	t.Helper()
	s, err := serve.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if prewarm {
		rep, err := s.Prewarm(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Entries == 0 || rep.Compile <= 0 {
			t.Fatalf("prewarm report %+v claims no tax was moved to startup", rep)
		}
	}
	compile0 := plan.Shared.CompileTime()
	_, misses0, _ := plan.Shared.Stats()
	req := httptest.NewRequest("POST", "/v1/classify", strings.NewReader(`{}`))
	rec := httptest.NewRecorder()
	start := time.Now()
	s.Handler().ServeHTTP(rec, req)
	lat = time.Since(start)
	if rec.Code != 200 {
		t.Fatalf("first request failed: %d %s", rec.Code, rec.Body.String())
	}
	_, misses1, _ := plan.Shared.Stats()
	return lat, plan.Shared.CompileTime() - compile0, misses1 - misses0
}

// TestPrewarmEliminatesFirstRequestPlanTax compares the first request's
// latency anatomy before and after -prewarm: cold, the first request
// pays plan compilation (nonzero compile time, nonzero cache misses);
// prewarmed, that component is exactly zero — the tax moved to startup
// and was priced in the prewarm report. The two sides run on platforms
// no other test in this binary touches, so the shared cache is provably
// cold where the test needs it to be.
func TestPrewarmEliminatesFirstRequestPlanTax(t *testing.T) {
	mkCfg := func(platform string) serve.Config {
		p, err := aitax.PlatformByName(platform)
		if err != nil {
			t.Fatal(err)
		}
		m, err := models.ByName("MobileNet 1.0 v1")
		if err != nil {
			t.Fatal(err)
		}
		cfg := serve.Config{
			Platform: p, DType: tensor.Float32, Delegate: tflite.DelegateGPU,
			Models: []*models.Model{m}, Entry: app.StagePre,
			Workers: 1, MaxBatch: 1, QueueDepth: 4, Seed: 7,
		}
		cfg = cfg.Defaults()
		if err := cfg.Validate(); err != nil {
			t.Fatal(err)
		}
		return cfg
	}

	coldLat, coldCompile, coldMisses := firstRequest(t, mkCfg("Snapdragon 855 HDK"), false)
	if coldCompile <= 0 || coldMisses == 0 {
		t.Fatalf("cold first request paid %v compile over %d misses; expected nonzero plan tax", coldCompile, coldMisses)
	}
	warmLat, warmCompile, warmMisses := firstRequest(t, mkCfg("Snapdragon 865 HDK"), true)
	if warmCompile != 0 || warmMisses != 0 {
		t.Fatalf("prewarmed first request still paid %v compile over %d misses, want zero", warmCompile, warmMisses)
	}
	t.Logf("first-request latency: cold %v (plan compile %v, %d misses) -> prewarmed %v (compile 0)",
		coldLat, coldCompile, coldMisses, warmLat)
}

// TestPrewarmFlagKeepsReportByteIdentical pins that -prewarm only moves
// host-side work: the loadgen stdout report is byte-identical with and
// without it, and the prewarm accounting lands on stderr.
func TestPrewarmFlagKeepsReportByteIdentical(t *testing.T) {
	base := []string{"-loadgen", "-ramp", "40x250ms", "-seed", "9"}
	plain := runCmd(t, runServe, base...)
	var warmed, warmedErr bytes.Buffer
	if code := runServe(append(append([]string{}, base...), "-prewarm"), &warmed, &warmedErr); code != 0 {
		t.Fatalf("prewarmed run failed:\n%s", warmedErr.String())
	}
	if plain != warmed.String() {
		t.Fatalf("-prewarm perturbed the load report\n--- plain ---\n%s\n--- prewarmed ---\n%s",
			plain, warmed.String())
	}
	if !strings.Contains(warmedErr.String(), "prewarm: compiled") {
		t.Fatalf("prewarm accounting missing from stderr:\n%s", warmedErr.String())
	}
}
