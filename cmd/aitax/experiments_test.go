package main

import (
	"path/filepath"
	"strings"
	"testing"

	"aitax/internal/plan"
)

func TestGoldenTable1(t *testing.T) {
	checkGolden(t, runCmd(t, runExperiments, "-run", "table1", "-runs", "5"), "table1_runs5.golden")
}

// TestGoldenResultsDocs pins the committed reference results — every
// table and the Figs. 9–11 histogram rendering — to the generator
// (`make results`).
func TestGoldenResultsDocs(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"../../docs/RESULTS.txt", []string{"-runs", "50"}},
		{"../../docs/RESULTS.md", []string{"-runs", "50", "-format", "markdown"}},
	} {
		t.Run(filepath.Base(tc.golden), func(t *testing.T) {
			if runCmd(t, runExperiments, tc.args...) != readFile(t, tc.golden) {
				t.Fatalf("%s diverged from %s; regenerate with `make results` only if the change is intended",
					strings.Join(tc.args, " "), tc.golden)
			}
		})
	}
}

// TestGoldenSD855Seed7 pins the full sweep on a second platform, seed
// and run count, so a change to the simulated CPU path is checked
// against more than the Pixel 3 reference results. It compiles into a
// private plan cache: TestPrewarmEliminatesFirstRequestPlanTax needs the
// shared cache cold for this platform.
func TestGoldenSD855Seed7(t *testing.T) {
	shared := plan.Shared
	plan.Shared = plan.New()
	defer func() { plan.Shared = shared }()
	checkGolden(t, runCmd(t, runExperiments, "-platform", "Snapdragon 855", "-seed", "7", "-runs", "100"),
		"experiments_sd855_seed7_runs100.golden")
}

func TestParallelOutputByteIdentical(t *testing.T) {
	// A mixed subset (static tables, app runs, bench-tool runs) rendered
	// sequentially and 8-wide must be byte-for-byte identical.
	render := func(parallel string) string {
		return runCmd(t, runExperiments, "-run", "table2,fig5,fig8,coldstart,post",
			"-runs", "6", "-parallel", parallel)
	}
	seq, par := render("1"), render("8")
	if seq != par {
		t.Fatalf("-parallel 8 diverged from -parallel 1\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	if !strings.Contains(seq, "=== fig5") {
		t.Fatalf("missing experiment in output:\n%s", seq)
	}
}

func TestTelemetryFlagsLeaveStdoutIdenticalAndMergeDeterministically(t *testing.T) {
	// The telemetry flags must be strictly additive: stdout with
	// -trace/-metrics set is byte-identical to stdout without them, and
	// the exported files are byte-identical at any -parallel value.
	base := []string{"-run", "table2,fig5,post", "-runs", "4"}
	render := func(extra ...string) (string, string, string) {
		dir := t.TempDir()
		trace := filepath.Join(dir, "t.json")
		prom := filepath.Join(dir, "m.prom")
		args := append(append([]string{}, base...), extra...)
		out := runCmd(t, runExperiments, append(args, "-trace", trace, "-metrics", prom)...)
		return out, readFile(t, trace), readFile(t, prom)
	}

	plain := runCmd(t, runExperiments, base...)
	outSeq, traceSeq, promSeq := render("-parallel", "1")
	outPar, tracePar, promPar := render("-parallel", "8")
	if outSeq != plain || outPar != plain {
		t.Fatal("-trace/-metrics changed stdout")
	}
	if traceSeq != tracePar {
		t.Fatal("trace file depends on -parallel")
	}
	if promSeq != promPar {
		t.Fatal("metrics file depends on -parallel")
	}
	for _, want := range []string{"aitax_experiments_total 3", `aitax_experiment_sim_ms_count{id="fig5"} 1`} {
		if !strings.Contains(promSeq, want) {
			t.Fatalf("metrics missing %q:\n%s", want, promSeq)
		}
	}
}

func TestListAndErrors(t *testing.T) {
	out := runCmd(t, runExperiments, "-list")
	if !strings.Contains(out, "table1") || !strings.Contains(out, "fig11") {
		t.Fatalf("-list output:\n%s", out)
	}
	code, stderr := runCode(runExperiments, "-run", "nope")
	if code != 1 {
		t.Fatalf("unknown experiment exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "unknown experiment") {
		t.Fatalf("stderr:\n%s", stderr)
	}
}

func TestProgressGoesToStderrOnly(t *testing.T) {
	var out, errb strings.Builder
	if code := runExperiments([]string{"-run", "table2", "-runs", "3", "-progress"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errb.String(), "done table2") {
		t.Fatalf("no progress on stderr:\n%s", errb.String())
	}
	if strings.Contains(out.String(), "done table2") {
		t.Fatal("progress leaked into stdout")
	}
}
