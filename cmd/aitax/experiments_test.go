package main

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"aitax/internal/bench"
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

// TestExperimentsMeasureEachRunOnce reads the sweep's jobs off
// -progress: every experiment renders once and no measurement runs
// twice, although fig4a/fig4b and fig9/fig10 declare shared ones.
func TestExperimentsMeasureEachRunOnce(t *testing.T) {
	var out, errb strings.Builder
	if code := runExperiments([]string{"-runs", "4", "-parallel", "2", "-progress"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d:\n%s", code, errb.String())
	}
	jobs := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(errb.String()), "\n") {
		id, ok := strings.CutPrefix(line, "done ")
		if i := strings.LastIndex(id, " wall "); !ok || i < 0 {
			t.Fatalf("progress line %q", line)
		} else {
			jobs[strings.TrimSpace(id[:i])]++
		}
	}
	for id, n := range jobs {
		if n != 1 {
			t.Errorf("job %q ran %d times", id, n)
		}
	}
	for _, id := range bench.IDs() {
		if jobs[id] != 1 {
			t.Errorf("experiment %s rendered %d times", id, jobs[id])
		}
	}
	if measured := len(jobs) - len(bench.IDs()); measured < 100 {
		t.Errorf("%d measurement jobs; the sweep declares over 100 distinct runs", measured)
	}
}

// TestDocumentedExperimentIDsExist checks every `aitax experiments -run
// <ids>` command the user documentation gives: an id that names no
// experiment makes the command exit 1. ROADMAP.md and CHANGES.md are
// history and may quote commands as they once were, so they are not
// scanned.
func TestDocumentedExperimentIDsExist(t *testing.T) {
	var docs []string
	for _, pat := range []string{"../../README.md", "../../DESIGN.md", "../../EXPERIMENTS.md", "../../docs/*.md"} {
		m, err := filepath.Glob(pat)
		if err != nil || len(m) == 0 {
			t.Fatalf("%s: %v", pat, err)
		}
		docs = append(docs, m...)
	}
	cmd := regexp.MustCompile("aitax experiments[^`\n|]*?-run[ =]([\\w,.-]+)")
	found := 0
	for _, path := range docs {
		for _, m := range cmd.FindAllStringSubmatch(readFile(t, path), -1) {
			found++
			if m[1] == "all" {
				continue
			}
			for _, id := range strings.Split(m[1], ",") {
				if _, err := bench.ByID(id); err != nil {
					t.Errorf("%s: `%s`: %v", filepath.Base(path), m[0], err)
				}
			}
		}
	}
	if found < 5 {
		t.Fatalf("found %d documented commands; the pattern no longer matches the docs", found)
	}
}
