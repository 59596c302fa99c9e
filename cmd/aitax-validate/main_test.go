package main

import (
	"bytes"
	"strings"
	"testing"
)

// The chaos gate must pass, and its report must be byte-identical
// between invocations and across worker-pool widths — the end-to-end
// determinism contract of the fault subsystem.
func TestChaosGateDeterministic(t *testing.T) {
	wide := runGate(t, "-chaos", "4")
	if !strings.Contains(wide, "chaos gate PASS") {
		t.Fatalf("no PASS line in report:\n%s", wide)
	}
	if !strings.Contains(wide, "fault recovery") {
		t.Fatalf("report shows no fault recovery — the plan injected nothing:\n%s", wide)
	}
	for _, tgt := range []string{"target cpu:", "target gpu:", "target hexagon:", "target nnapi:"} {
		if !strings.Contains(wide, tgt) {
			t.Fatalf("report missing %q:\n%s", tgt, wide)
		}
	}
	// Only the closing PASS line names the -parallel value; every
	// measured byte before it must match across pool widths.
	body := func(s string) string { return s[:strings.Index(s, "chaos gate PASS")] }
	for _, par := range []string{"2", ""} {
		if again := runGate(t, "-chaos", par); body(again) != body(wide) {
			t.Fatalf("chaos report differs across invocations/parallelism:\n--- parallel 4 ---\n%s--- parallel %q ---\n%s", wide, par, again)
		}
	}
}

// runGate runs one aitax-validate gate at the given -parallel value
// ("" leaves the flag at its default) and returns its report.
func runGate(t *testing.T, gate, parallel string) string {
	t.Helper()
	args := []string{gate}
	if parallel != "" {
		args = append(args, "-parallel", parallel)
	}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s gate exited %d: %s%s", gate, code, out.String(), errb.String())
	}
	return out.String()
}

// The brownout gate must pass end to end: ladder engaged and
// recovered, only best-effort shed, the controller inside the
// objective the frozen baseline violates, and the report identical
// across pool widths.
func TestBrownoutGatePasses(t *testing.T) {
	wide := runGate(t, "-brownout", "4")
	if !strings.Contains(wide, "brownout gate PASS") {
		t.Fatalf("no PASS line in report:\n%s", wide)
	}
	for _, want := range []string{
		"degradation anatomy (brownout controller active",
		"per-class latency",
		"observe-only baseline violates it",
	} {
		if !strings.Contains(wide, want) {
			t.Fatalf("report missing %q:\n%s", want, wide)
		}
	}
	if strings.Contains(wide, "FAIL") {
		t.Fatalf("gate passed with FAIL lines:\n%s", wide)
	}
	// Only the first PASS line names the -parallel value; the measured
	// anatomy before the checks must match across pool widths.
	body := func(s string) string { return s[:strings.Index(s, "PASS  report byte-identical")] }
	for _, par := range []string{"2", ""} {
		if again := runGate(t, "-brownout", par); body(again) != body(wide) {
			t.Fatalf("brownout report differs across parallelism:\n--- parallel 4 ---\n%s--- parallel %q ---\n%s", wide, par, again)
		}
	}
}

// -chaos and -brownout are mutually exclusive gates.
func TestGateFlagsAreExclusive(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-chaos", "-brownout"}, &out, &errb); code == 0 {
		t.Fatal("combined -chaos -brownout succeeded, want an error")
	}
	if errb.Len() == 0 {
		t.Fatal("combined gates failed silently")
	}
}
