package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
)

func TestGoldenTimeline(t *testing.T) {
	checkGolden(t, runCmd(t, runProfile, "-horizon", "150"), "effnet_nnapi_h150.golden")
}

func TestGoldenChromeTraceAndUnperturbedTimeline(t *testing.T) {
	dir := t.TempDir()
	chrome := filepath.Join(dir, "c.json")
	prom := filepath.Join(dir, "m.prom")
	base := []string{"-model", "MobileNetV1", "-delegate", "hexagon", "-horizon", "120"}

	plain := runCmd(t, runProfile, base...)
	out := runCmd(t, runProfile, append(append([]string{}, base...), "-trace", chrome, "-metrics", prom)...)
	// Switching the exports on must not change the rendered timeline.
	if out != plain {
		t.Fatalf("-trace/-metrics perturbed the timeline\n--- plain ---\n%s\n--- traced ---\n%s", plain, out)
	}

	got := readFile(t, chrome)
	checkGolden(t, got, "mobilenet_hexagon_h120_chrome.golden")
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(got), &doc); err != nil {
		t.Fatalf("golden chrome trace is not valid JSON: %v", err)
	}
	var flows int
	for _, e := range doc.TraceEvents {
		if e.Ph == "s" || e.Ph == "f" {
			flows++
		}
	}
	if flows == 0 {
		t.Fatal("no FastRPC flow events in hexagon trace")
	}

	promText := readFile(t, prom)
	for _, want := range []string{"aitax_invocations_total", "aitax_fastrpc_exec_ms_p50"} {
		if !strings.Contains(promText, want) {
			t.Fatalf("metrics missing %q:\n%s", want, promText)
		}
	}
}

func TestProfileBadFlags(t *testing.T) {
	if code, _ := runCode(runProfile, "-delegate", "npu"); code != 1 {
		t.Fatalf("unknown delegate exit = %d, want 1", code)
	}
	if code, _ := runCode(runProfile, "-model", "nope"); code != 1 {
		t.Fatalf("unknown model exit = %d, want 1", code)
	}
	// A bucket below 1ns or not finite, or a window that is non-positive
	// or overflows a time.Duration, is a usage error, not a panic or a
	// report over a negative window.
	for _, args := range [][]string{
		{"-bucket", "0"}, {"-bucket", "-1"}, {"-bucket", "NaN"}, {"-bucket", "1e-7"},
		{"-bucket", "Inf"}, {"-horizon", "0"}, {"-horizon", "-5"},
		{"-horizon", "10000000000000"},
	} {
		if code, stderr := runCode(runProfile, args...); code != 1 || stderr == "" {
			t.Errorf("%v exit = %d, stderr %q; want exit 1 with a message", args, code, stderr)
		}
	}
	// -trace is the only trace-export flag; -chrome is not accepted.
	if code, _ := runCode(runProfile, "-chrome", "x.json"); code != 2 {
		t.Fatalf("-chrome exit = %d, want 2 (unknown flag)", code)
	}
}
