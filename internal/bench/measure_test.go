package bench

import (
	"context"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aitax/internal/faults"
	"aitax/internal/lab"
	"aitax/internal/models"
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
// declare 184 Runs, of which 130 are distinct. Fig. 4a and 4b read the
// same grid, and Figs. 9 and 10 share their zero-tenant row.
// Resolution's default-preview row and preoffload's two CPU rows are
// Fig. 9 and 10 rows.
func TestSweepPlan(t *testing.T) {
	cfg := Config{Seed: 1, SeedSet: true, Runs: 500}.Defaults()
	if p := planOf(cfg); p.declared != 184 || len(p.runs) != 130 {
		t.Fatalf("sweep declares %d Runs, %d distinct; want 184 and 130", p.declared, len(p.runs))
	}
	if p := planOf(cfg, "fig4a", "fig4b"); p.declared != 2*len(p.runs) || len(p.runs) != len(planOf(cfg, "fig4a").runs) {
		t.Fatalf("fig4a+fig4b declare %d Runs, %d distinct; want one grid twice", p.declared, len(p.runs))
	}
	if p := planOf(cfg, "fig9", "fig10"); p.declared != 10 || len(p.runs) != 9 {
		t.Fatalf("fig9+fig10 declare %d Runs, %d distinct; want 10 and 9", p.declared, len(p.runs))
	}
	tenancy := len(planOf(cfg, "fig9", "fig10").runs)
	for id, want := range map[string]int{"resolution": 1, "preoffload": 2} {
		if shared := tenancy + len(planOf(cfg, id).runs) - len(planOf(cfg, "fig9", "fig10", id).runs); shared != want {
			t.Errorf("%s shares %d Runs with fig9+fig10, want %d", id, shared, want)
		}
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
// sweep at 5 runs, faulted, DSP pre-processing and non-default preview
// keys included, and checks the stage laws on each frame before the
// Sample drops it. Exactly one Run fails, on purpose: Fig. 5's Hexagon
// delegate bar in fp32.
func TestWholeGridConserves(t *testing.T) {
	cfg := Config{Runs: 5}.Defaults()
	p := planOf(cfg)
	wantErr := Run{Platform: cfg.Platform.Name, Seed: cfg.Seed, Model: "EfficientNet-Lite0", DType: tensor.Float32,
		Delegate: tflite.DelegateHexagon, Threads: 4, N: cfg.Runs}
	frames, failed, faulted, preDSP, preview := 0, 0, 0, 0, 0
	for _, r := range p.runs {
		if r.Faults.Enabled() {
			faulted++
		}
		if r.PreOnDSP {
			preDSP++
		}
		if r.PreviewW != 0 {
			preview++
		}
		sts, _, err := r.frames(context.Background(), p.models[r.Model], cfg.Platform)
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
	if faulted == 0 || preDSP == 0 || preview == 0 {
		t.Errorf("the grid walked %d faulted, %d DSP-pre and %d non-default preview Runs; want some of each", faulted, preDSP, preview)
	}
	t.Logf("%d Runs, %d frames checked", len(p.runs), frames)
}

// TestSweepMatchesStandaloneRuns renders every experiment through the
// sweep runner and through its own RunCtx, at three seeds on two
// platforms and once with a custom fault plan, and requires
// byte-identical output.
func TestSweepMatchesStandaloneRuns(t *testing.T) {
	var cfgs []Config
	for _, name := range []string{"Google Pixel 3", "Snapdragon 855"} {
		p, err := soc.PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 7, 42} {
			cfgs = append(cfgs, Config{Platform: p, Seed: seed, Runs: 6})
		}
	}
	plan, err := faults.ParsePlan("rpc=0.3,seed=9")
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, Config{Platform: soc.Pixel3(), Seed: 1, Runs: 6, Faults: plan})
	for _, cfg := range cfgs {
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
				t.Errorf("%s seed %d faults %+v %s: sweep diverged from RunCtx\n--- RunCtx ---\n%s\n--- sweep ---\n%s",
					cfg.Platform.Name, cfg.Seed, cfg.Faults, e.ID, a, b)
			}
		}
	}
}

// TestWarmRunMeasuresTheSecondRun pins that warmRun reports the warm
// run: on a fresh stack's Hexagon path the first invoke maps the DSP
// into the process, so the cold run outlasts the warm one by at least
// the FastRPC session setup.
func TestWarmRunMeasuresTheSecondRun(t *testing.T) {
	cfg := Config{}.Defaults()
	m, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		t.Fatal(err)
	}
	initialized := func() (*tflite.Runtime, *tflite.Interpreter) {
		rt := cfg.stack()
		ip, err := rt.NewInterpreter(m, tensor.UInt8, tflite.Options{Delegate: tflite.DelegateHexagon})
		if err != nil {
			t.Fatal(err)
		}
		ip.Init(nil)
		rt.Eng.Run()
		return rt, ip
	}

	rt, ip := initialized()
	var cold time.Duration
	ip.InvokeWhile(func(i int) bool { return i < 1 }, func(_ tflite.Report, d time.Duration) { cold = d })
	rt.Eng.Run()

	rt, ip = initialized()
	_, warm := warmRun(rt, ip.Invoke)
	if setup := cfg.Platform.RPC.SessionSetup; warm <= 0 || cold-warm < setup {
		t.Fatalf("cold run %v, warm run %v: want the cold one longer by at least the session setup %v", cold, warm, setup)
	}
}
