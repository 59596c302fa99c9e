package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestGoldenTable1(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "table1", "-runs", "5"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
	}
	want, err := os.ReadFile("testdata/table1_runs5.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output diverged from golden\n--- got ---\n%s\n--- want ---\n%s",
			out.String(), string(want))
	}
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
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
			}
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%s diverged from %s; regenerate with `make results` only if the change is intended",
					strings.Join(tc.args, " "), tc.golden)
			}
		})
	}
}

func TestParallelOutputByteIdentical(t *testing.T) {
	// A mixed subset (static tables, app runs, bench-tool runs) rendered
	// sequentially and 8-wide must be byte-for-byte identical.
	render := func(parallel string) string {
		var out, errb bytes.Buffer
		args := []string{"-run", "table2,fig5,fig8,coldstart,post",
			"-runs", "6", "-parallel", parallel}
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("parallel %s: exit %d, stderr:\n%s", parallel, code, errb.String())
		}
		return out.String()
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
		var out, errb bytes.Buffer
		args := append(append([]string{}, base...), extra...)
		args = append(args, "-trace", trace, "-metrics", prom)
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("exit %d, stderr:\n%s", code, errb.String())
		}
		return out.String(), readFile(t, trace), readFile(t, prom)
	}

	var plain bytes.Buffer
	if code := run(base, &plain, &bytes.Buffer{}); code != 0 {
		t.Fatal("plain run failed")
	}
	outSeq, traceSeq, promSeq := render("-parallel", "1")
	outPar, tracePar, promPar := render("-parallel", "8")
	if outSeq != plain.String() || outPar != plain.String() {
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

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestListAndErrors(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list exit %d", code)
	}
	if !strings.Contains(out.String(), "table1") || !strings.Contains(out.String(), "fig11") {
		t.Fatalf("-list output:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-run", "nope"}, &out, &errb); code != 1 {
		t.Fatalf("unknown experiment exit = %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown experiment") {
		t.Fatalf("stderr:\n%s", errb.String())
	}
}

func TestProgressGoesToStderrOnly(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-run", "table2", "-runs", "3", "-progress"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errb.String(), "done table2") {
		t.Fatalf("no progress on stderr:\n%s", errb.String())
	}
	if strings.Contains(out.String(), "done table2") {
		t.Fatal("progress leaked into stdout")
	}
}
