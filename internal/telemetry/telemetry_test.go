package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"aitax/internal/sim"
)

func TestNilTracerAndRegistryAreNoOps(t *testing.T) {
	var tr *Tracer
	sp := tr.Start("x", "y", TrackCPU, nil)
	if sp != nil {
		t.Fatal("nil tracer returned a span")
	}
	sp.End()
	sp.SetAttr("k", "v")
	if sp.SpanID() != 0 {
		t.Fatal("nil span has an ID")
	}
	tr.Link("f", sp, sp)
	if tr.Spans() != nil || tr.Flows() != nil || tr.Len() != 0 {
		t.Fatal("nil tracer recorded something")
	}

	var r *Registry
	r.Add("c", 1)
	r.Inc("c")
	r.Set("g", 2)
	r.Observe("h", 3)
	if r.Counter("c") != 0 || r.Gauge("g") != 0 || r.Count("h") != 0 || r.Quantile("h", 0.5) != 0 {
		t.Fatal("nil registry returned values")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestSpanTreeAndFlows(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng.Now)

	root := tr.Start("frame", "app", TrackCPU, nil)
	eng.After(10*time.Millisecond, func() {})
	eng.Step()
	child := tr.Start("pre", "preproc", TrackCPU, root)
	eng.After(5*time.Millisecond, func() {})
	eng.Step()
	child.End()
	dsp := tr.Emit("infer", "fastrpc", TrackDSP, root, sim.Time(15e6), sim.Time(20e6))
	tr.Link("fastrpc", child, dsp)
	root.End()
	root.SetAttr("frame", "1")

	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	roots := Roots(spans)
	if len(roots) != 1 || roots[0].Name != "frame" {
		t.Fatalf("roots = %+v", roots)
	}
	if roots[0].Duration() != 15*time.Millisecond {
		t.Fatalf("root duration = %v", roots[0].Duration())
	}
	if roots[0].Attr("frame") != "1" {
		t.Fatal("attr lost")
	}
	kids := Children(spans, roots[0].ID)
	if len(kids) != 2 || kids[0].Name != "pre" || kids[1].Name != "infer" {
		t.Fatalf("children = %+v", kids)
	}
	if kids[0].Duration() != 5*time.Millisecond {
		t.Fatalf("pre duration = %v", kids[0].Duration())
	}
	if kids[1].Track != TrackDSP {
		t.Fatal("emit track lost")
	}
	flows := tr.Flows()
	if len(flows) != 1 || flows[0].From != kids[0].ID || flows[0].To != kids[1].ID {
		t.Fatalf("flows = %+v", flows)
	}
}

func TestOpenSpanIsZeroLength(t *testing.T) {
	eng := sim.NewEngine()
	tr := NewTracer(eng.Now)
	tr.Start("open", "app", TrackCPU, nil)
	if d := tr.Spans()[0].Duration(); d != 0 {
		t.Fatalf("open span duration = %v", d)
	}
}

func TestRegistryExactQuantiles(t *testing.T) {
	r := NewRegistry()
	for i := 100; i >= 1; i-- { // insertion order must not matter
		r.Observe("lat_ms", float64(i))
	}
	if got := r.Quantile("lat_ms", 0.5); got != 50 {
		t.Fatalf("p50 = %v", got)
	}
	if got := r.Quantile("lat_ms", 0.9); got != 90 {
		t.Fatalf("p90 = %v", got)
	}
	if got := r.Quantile("lat_ms", 0.99); got != 99 {
		t.Fatalf("p99 = %v", got)
	}
	if r.Count("lat_ms") != 100 {
		t.Fatal("count wrong")
	}
}

func TestRegistryMergeDeterministic(t *testing.T) {
	mk := func() (*Registry, *Registry) {
		a, b := NewRegistry(), NewRegistry()
		a.Add("calls_total", 2)
		a.Observe("lat_ms", 1)
		a.Observe("lat_ms", 3)
		b.Add("calls_total", 3)
		b.Set("temp", 33)
		b.Observe("lat_ms", 2)
		return a, b
	}
	a1, b1 := mk()
	a2, b2 := mk()
	m1, m2 := NewRegistry(), NewRegistry()
	m1.Merge(a1)
	m1.Merge(b1)
	m2.Merge(a2)
	m2.Merge(b2)
	var w1, w2 bytes.Buffer
	if err := m1.WritePrometheus(&w1); err != nil {
		t.Fatal(err)
	}
	if err := m2.WritePrometheus(&w2); err != nil {
		t.Fatal(err)
	}
	if w1.String() != w2.String() {
		t.Fatal("same merge order produced different output")
	}
	if m1.Counter("calls_total") != 5 {
		t.Fatalf("merged counter = %v", m1.Counter("calls_total"))
	}
	if m1.Count("lat_ms") != 3 {
		t.Fatal("merged histogram count wrong")
	}
}

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Add("aitax_frames_total", 20)
	r.Set("aitax_dsp_utilization", 0.25)
	r.Observe(Labeled("aitax_stage_ms", "stage", "pre"), 4)
	r.Observe(Labeled("aitax_stage_ms", "stage", "pre"), 8)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE aitax_frames_total counter",
		"aitax_frames_total 20",
		"# TYPE aitax_dsp_utilization gauge",
		"# TYPE aitax_stage_ms histogram",
		`aitax_stage_ms_bucket{stage="pre",le="5"} 1`,
		`aitax_stage_ms_bucket{stage="pre",le="+Inf"} 2`,
		`aitax_stage_ms_sum{stage="pre"} 12`,
		`aitax_stage_ms_count{stage="pre"} 2`,
		`aitax_stage_ms_p50{stage="pre"} 4`,
		`aitax_stage_ms_p99{stage="pre"} 8`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryJSONAndSpansJSONL(t *testing.T) {
	r := NewRegistry()
	r.Observe("lat_ms", 7)
	r.Add("n", 1)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed RegistryJSON
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Histograms["lat_ms"].P50 != 7 || parsed.Counters["n"] != 1 {
		t.Fatalf("JSON roundtrip: %+v", parsed)
	}

	eng := sim.NewEngine()
	tr := NewTracer(eng.Now)
	sp := tr.Start("frame", "app", TrackCPU, nil)
	sp.SetAttr("frame", "1")
	sp.End()
	var lines bytes.Buffer
	if err := WriteSpansJSONL(&lines, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	var row map[string]any
	if err := json.Unmarshal(lines.Bytes(), &row); err != nil {
		t.Fatal(err)
	}
	if row["name"] != "frame" || row["track"] != "cpu" {
		t.Fatalf("JSONL row: %v", row)
	}
}
