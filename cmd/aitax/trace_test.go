package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestTraceRunDeterministicSummary(t *testing.T) {
	render := func() string {
		return runCmd(t, runTrace, "-model", "MobileNetV1", "-delegate", "hexagon", "-frames", "5")
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("summary not deterministic\n--- 1 ---\n%s\n--- 2 ---\n%s", first, second)
	}
	for _, want := range []string{"stage", "capture", "inference", "total", "fastrpc:", "flows"} {
		if !strings.Contains(first, want) {
			t.Fatalf("summary missing %q:\n%s", want, first)
		}
	}
}

func TestTraceExportsFiles(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "out.json")
	prom := filepath.Join(dir, "out.prom")
	jsonl := filepath.Join(dir, "spans.jsonl")
	runCmd(t, runTrace, "-model", "MobileNetV1", "-delegate", "hexagon", "-frames", "5",
		"-trace", chrome, "-metrics", prom, "-jsonl", jsonl)

	// The chrome file must be valid JSON with sched slices, pipeline
	// spans on both tracks, and paired flow events.
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			PID int    `json:"pid"`
			TID int    `json:"tid"`
			ID  int64  `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(readFile(t, chrome)), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	starts, finishes := map[int64]bool{}, map[int64]bool{}
	var schedSlices, dspSpans, counters int
	for _, e := range doc.TraceEvents {
		switch {
		case e.Ph == "X" && e.PID == 0:
			schedSlices++
		case e.Ph == "X" && e.PID == 1 && e.TID == 1:
			dspSpans++
		case e.Ph == "s":
			starts[e.ID] = true
		case e.Ph == "f":
			finishes[e.ID] = true
		case e.Ph == "C":
			counters++
		}
	}
	if schedSlices == 0 || dspSpans == 0 || counters == 0 {
		t.Fatalf("trace incomplete: %d sched slices, %d dsp spans, %d counter samples",
			schedSlices, dspSpans, counters)
	}
	if len(starts) == 0 {
		t.Fatal("no flow events")
	}
	for id := range starts {
		if !finishes[id] {
			t.Fatalf("flow %d has no finish event", id)
		}
	}

	// The metrics file must carry per-stage exact quantiles.
	promText := readFile(t, prom)
	for _, want := range []string{
		`aitax_stage_ms_p50{stage="inference"}`,
		`aitax_stage_ms_p90{stage="total"}`,
		`aitax_stage_ms_p99{stage="capture"}`,
		"aitax_fastrpc_calls_total",
	} {
		if !strings.Contains(promText, want) {
			t.Fatalf("metrics missing %q:\n%s", want, promText)
		}
	}

	// The span log is one JSON object per line.
	lines := strings.Split(strings.TrimSpace(readFile(t, jsonl)), "\n")
	if len(lines) < 5 {
		t.Fatalf("span log has %d lines", len(lines))
	}
	for _, ln := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(ln), &row); err != nil {
			t.Fatalf("bad JSONL row %q: %v", ln, err)
		}
	}
}

func TestTraceBadFlags(t *testing.T) {
	code, stderr := runCode(runTrace, "-delegate", "npu")
	if code != 1 {
		t.Fatalf("unknown delegate exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown delegate") {
		t.Fatalf("stderr:\n%s", stderr)
	}
	if code, _ := runCode(runTrace, "-model", "no-such-model"); code != 1 {
		t.Fatalf("unknown model exit = %d, want 1", code)
	}
	// -trace is the only trace-export flag; -chrome is not accepted.
	if code, _ := runCode(runTrace, "-chrome", "x.json"); code != 2 {
		t.Fatalf("-chrome exit = %d, want 2 (unknown flag)", code)
	}
}
