package bench

import (
	"context"
	"strings"
	"testing"
)

// renderAll joins the rendered results the way aitax experiments does.
func renderAll(rs []*Result) string {
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.Render())
		b.WriteString("\n")
	}
	return b.String()
}

func TestRunExperimentsParallelByteIdentical(t *testing.T) {
	// A representative subset (app runs, bench-tool runs, timelines,
	// distribution histograms) rendered at parallelism 1 vs 8 must be
	// byte-identical: the merge is deterministic and the experiments
	// share no state.
	var subset []Experiment
	for _, id := range []string{"fig5", "fig8", "coldstart", "init", "post", "fig11"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		subset = append(subset, e)
	}
	cfg := Config{Seed: 42, Runs: 8}

	seqRes, err := RunExperimentsCtx(context.Background(), subset, cfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	parRes, err := RunExperimentsCtx(context.Background(), subset, cfg, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	seq, par := renderAll(seqRes), renderAll(parRes)
	if seq != par {
		t.Fatalf("parallel output diverged from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s", seq, par)
	}
	if len(seq) < 200 {
		t.Fatalf("suspiciously small output:\n%s", seq)
	}
}

func TestRunExperimentsPanicBecomesErrorResult(t *testing.T) {
	exps := []Experiment{
		{ID: "ok-before", Title: "healthy", Plan: own(TableII)},
		{ID: "boom", Title: "exploding experiment", Plan: own(func(Config) *Result {
			panic("synthetic failure")
		})},
		{ID: "ok-after", Title: "healthy", Plan: own(TableII)},
	}
	rs, err := RunExperimentsCtx(context.Background(), exps, Config{Runs: 5}, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 3 {
		t.Fatalf("results = %d", len(rs))
	}
	if len(rs[0].Rows) != 4 || len(rs[2].Rows) != 4 {
		t.Fatal("healthy experiments disturbed by the panicking one")
	}
	if rs[1].ID != "boom" || len(rs[1].Notes) != 1 {
		t.Fatalf("error result = %+v", rs[1])
	}
	if !strings.Contains(rs[1].Notes[0], "setup failed") ||
		!strings.Contains(rs[1].Notes[0], "synthetic failure") {
		t.Fatalf("error note = %q", rs[1].Notes[0])
	}
	// The error result must render (the CLI prints it like any other).
	if out := rs[1].Render(); !strings.Contains(out, "setup failed") {
		t.Fatalf("error result render = %q", out)
	}
}

func TestRunExperimentsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs, err := RunExperimentsCtx(ctx, Experiments()[:3], Config{Runs: 5}, 1, nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for _, r := range rs {
		if len(r.Notes) == 0 || !strings.Contains(r.Notes[0], "setup failed") {
			t.Fatalf("cancelled experiment result = %+v", r)
		}
	}
}

func TestRunCtxRespectsContext(t *testing.T) {
	e, _ := ByID("table2")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunCtx(ctx, Config{Runs: 5}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	res, err := e.RunCtx(context.Background(), Config{Runs: 5})
	if err != nil || len(res.Rows) != 4 {
		t.Fatalf("RunCtx = %v, %v", res, err)
	}
}

func TestRunAllCoversEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in -short mode")
	}
	rs := RunAll(Config{Runs: 4}, 0)
	if len(rs) != len(Experiments()) {
		t.Fatalf("RunAll returned %d results, want %d", len(rs), len(Experiments()))
	}
	for i, e := range Experiments() {
		if rs[i].ID != e.ID {
			t.Fatalf("result %d = %s, want %s (paper order must be preserved)", i, rs[i].ID, e.ID)
		}
	}
}

func TestConfigSeedZeroRequestable(t *testing.T) {
	c := Config{Seed: 0, SeedSet: true}.Defaults()
	if c.Seed != 0 || !c.SeedSet {
		t.Fatalf("explicit seed 0 coerced: %+v", c)
	}
	d := Config{}.Defaults()
	if d.Seed != DefaultSeed {
		t.Fatalf("unset seed = %d, want DefaultSeed", d.Seed)
	}
	e := Config{Seed: 7}.Defaults()
	if e.Seed != 7 {
		t.Fatalf("non-zero seed rewritten: %+v", e)
	}
}
