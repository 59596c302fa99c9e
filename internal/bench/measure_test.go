package bench

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"

	"aitax/internal/lab"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// planOf declares the experiments with the given ids, or every
// experiment when none is given, into one Planner.
func planOf(cfg Config, ids ...string) *Planner {
	p := newPlanner()
	for _, e := range Experiments() {
		if len(ids) == 0 || slices.Contains(ids, e.ID) {
			e.Plan(cfg, p)
		}
	}
	return p
}

// TestSweepPlan pins the paper-scale Pixel 3 sweep: its experiments
// declare 172 Runs, of which 121 are distinct. Fig. 4a and 4b read the
// same grid, and Figs. 9 and 10 share their zero-tenant row.
func TestSweepPlan(t *testing.T) {
	cfg := Config{Seed: 1, SeedSet: true, Runs: 500}.Defaults()
	if p := planOf(cfg); p.declared != 172 || len(p.runs) != 121 {
		t.Fatalf("sweep declares %d Runs, %d distinct; want 172 and 121", p.declared, len(p.runs))
	}
	if p := planOf(cfg, "fig4a", "fig4b"); p.declared != 2*len(p.runs) || len(p.runs) != len(planOf(cfg, "fig4a").runs) {
		t.Fatalf("fig4a+fig4b declare %d Runs, %d distinct; want one grid twice", p.declared, len(p.runs))
	}
	if p := planOf(cfg, "fig9", "fig10"); p.declared != 10 || len(p.runs) != 9 {
		t.Fatalf("fig9+fig10 declare %d Runs, %d distinct; want 10 and 9", p.declared, len(p.runs))
	}
}

// TestSweepMeasuresEachRunOnce runs every experiment through the sweep
// runner, which aitax experiments, aitax validate and RunAll share, and
// requires one measurement job per distinct Run and one render job per
// experiment.
func TestSweepMeasuresEachRunOnce(t *testing.T) {
	cfg := Config{Runs: 4}
	runs := planOf(cfg.Defaults()).runs
	want := map[string]int{}
	for _, r := range runs {
		want[r.String()]++
	}
	for _, e := range Experiments() {
		want[e.ID]++
	}
	if len(want) != len(runs)+len(Experiments()) {
		t.Fatal("two Runs, or a Run and an experiment, share a job ID")
	}
	var mu sync.Mutex
	got := map[string]int{}
	if _, err := RunExperimentsCtx(context.Background(), Experiments(), cfg, 2, func(r lab.JobResult) {
		mu.Lock()
		got[r.ID]++
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}
	for id, n := range got {
		if want[id] != n {
			t.Errorf("job %q ran %d times, want %d", id, n, want[id])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d distinct jobs ran, want %d", len(got), len(want))
	}
}

// TestWholeGridConserves measures every Run of the default Pixel 3
// sweep at 5 runs and checks the stage laws on each frame before the
// Sample drops it. Exactly one Run fails, on purpose: Fig. 5's Hexagon
// delegate bar in fp32.
func TestWholeGridConserves(t *testing.T) {
	cfg := Config{Runs: 5}.Defaults()
	p := planOf(cfg)
	wantErr := Run{Platform: cfg.Platform.Name, Seed: cfg.Seed, Model: "EfficientNet-Lite0", DType: tensor.Float32,
		Delegate: tflite.DelegateHexagon, Threads: 4, N: cfg.Runs}
	frames, failed := 0, 0
	for _, r := range p.runs {
		sts, err := r.frames(context.Background(), p.models[r.Model], cfg.Platform)
		if err != nil {
			failed++
			if r != wantErr || !strings.Contains(err.Error(), "requires a quantized model") {
				t.Errorf("%s: %v", r, err)
			}
			continue
		}
		if len(sts) != r.N {
			t.Errorf("%s: %d runs, want %d", r, len(sts), r.N)
		}
		for i, st := range sts {
			checkConservation(t, r.String(), i, st)
		}
		frames += len(sts)
	}
	if failed != 1 {
		t.Errorf("%d Runs failed, want only %s", failed, wantErr)
	}
	t.Logf("%d Runs, %d frames conserved", len(p.runs), frames)
}

// TestSweepMatchesStandaloneRuns renders every experiment through the
// sweep runner and through its own RunCtx, at three seeds on two
// platforms, and requires byte-identical output.
func TestSweepMatchesStandaloneRuns(t *testing.T) {
	for _, name := range []string{"Google Pixel 3", "Snapdragon 855"} {
		p, err := soc.PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 7, 42} {
			cfg := Config{Platform: p, Seed: seed, Runs: 6}
			swept, err := RunExperimentsCtx(context.Background(), Experiments(), cfg, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range Experiments() {
				alone, err := e.RunCtx(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if a, b := alone.Render(), swept[i].Render(); a != b {
					t.Errorf("%s seed %d %s: sweep diverged from RunCtx\n--- RunCtx ---\n%s\n--- sweep ---\n%s", name, seed, e.ID, a, b)
				}
			}
		}
	}
}
