package serve

import (
	"bytes"
	"context"
	"os"
	"sort"
	"testing"
	"time"

	taxcore "aitax/internal/core"
	"aitax/internal/loadgen"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// stepRun is one simulated fixture with the inputs that produced it.
type stepRun struct {
	name     string
	cfg      Config
	arrivals []loadgen.Arrival
	res      *SimResult
	// golden, when set, is the cmd/aitax -obs golden of this run.
	golden string
}

// stepRuns simulates the two runs the -obs goldens pin, built as
// aitax serve builds them from its flags: the brownout storm (shed,
// downshifted, steered and interactive traffic) and the overloaded
// default run under an objective (`-loadgen -slo all=150ms@90`).
func stepRuns(t *testing.T) []stepRun {
	t.Helper()
	p, err := soc.PlatformByName("Google Pixel 3")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Platform: p, DType: tensor.Float32, Delegate: tflite.DelegateNNAPI, Entry: taxcore.StagePre,
		Workers: 2, BatchWindow: 2 * time.Millisecond, MaxBatch: 4, QueueDepth: 16,
		DispatchCost: 200 * time.Microsecond,
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}

	storm := base
	storm.QueueDepth, storm.Seed = 64, 11
	for _, name := range []string{"MobileNet 1.0 v1", "EfficientNet-Lite0"} {
		m, err := models.ByName(name)
		must(err)
		storm.Models = append(storm.Models, m)
	}
	storm.SLO, err = obs.ParseObjectives("EfficientNet-Lite0=350ms@95")
	must(err)
	ladder, err := qos.ParseLadder("tick=5ms,hold=6,short=2,long=4,enter=0.1/0.2/0.3,exit=0.04/0.08/0.15")
	must(err)
	storm.QoS = &QoSPolicy{
		Ladder: ladder, SteerDelegate: tflite.DelegateGPU,
		Downshift: map[string]string{"EfficientNet-Lite0": "MobileNet 1.0 v1"},
	}
	stormMix, err := loadgen.ParseMix("EfficientNet-Lite0=2,EfficientNet-Lite0=2:best-effort,EfficientNet-Lite0=1:interactive")
	must(err)

	load := base
	load.Seed = 42
	load.SLO, err = obs.ParseObjectives("all=150ms@90")
	must(err)

	runs := []stepRun{
		{name: "brownout storm", cfg: storm.Defaults(), golden: "brownout_obs.golden"},
		{name: "overloaded default", cfg: load.Defaults(), golden: "load_slo_obs.golden"},
	}
	for i, ramp := range []string{"300x300ms,4x3s", "10x1s,150x1s"} {
		r := &runs[i]
		must(r.cfg.Validate())
		phases, err := loadgen.ParseRamp(ramp)
		must(err)
		mix := stormMix
		if i == 1 {
			mix = nil
			for _, m := range r.cfg.Models {
				mix = append(mix, loadgen.Share{Model: m.Name, Weight: 1})
			}
		}
		r.arrivals, err = loadgen.Spec{Seed: r.cfg.Seed, Phases: phases, Mix: mix}.Generate()
		must(err)
		table, err := BuildCostTable(context.Background(), r.cfg, 0, nil)
		must(err)
		r.res, err = Simulate(r.cfg, table, r.arrivals, false)
		must(err)
	}
	return runs
}

// stepAt is one walked step: when, what, and to which request.
type stepAt struct {
	at   time.Duration
	kind uint8
	id   int
}

// walked is the step log as BuildSimObs reads it.
func walked(res *SimResult) []stepAt {
	var out []stepAt
	for _, st := range res.orderedSteps() {
		out = append(out, stepAt{res.stepTime(st), st.kind, res.Outcomes[st.idx].ID})
	}
	return out
}

// replayOrder is the oracle: the order the obs layer once replayed a
// finished run in, rebuilt from the outcomes alone — every request's
// admission, executor pickup and completion (or its one refusal),
// stably sorted by (time, kind, ID).
func replayOrder(res *SimResult) []stepAt {
	var evs []stepAt
	for _, o := range res.Outcomes {
		if o.Shed || o.Rejected {
			evs = append(evs, stepAt{o.Arrival.Duration(), evRefuse, o.ID})
			continue
		}
		evs = append(evs,
			stepAt{o.Arrival.Duration(), evArrive, o.ID},
			stepAt{o.Started.Duration(), evStart, o.ID},
			stepAt{o.Finished.Duration(), evFinish, o.ID},
		)
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.kind != b.kind {
			return a.kind < b.kind
		}
		return a.id < b.id
	})
	return evs
}

// The step log, walked, is exactly the replay's (time, kind, ID) order
// on both golden runs, so the recorder sees every observation in the
// order it always did. The runs hold simultaneous steps the engine
// fires out of that order (a completion's dispatch before a second
// completion at the same instant), so the walk's tie sort is load-
// bearing here.
func TestStepWalkMatchesReplayOrder(t *testing.T) {
	for _, r := range stepRuns(t) {
		want, got := replayOrder(r.res), walked(r.res)
		if len(got) != len(want) {
			t.Fatalf("%s: walk yields %d steps, replay %d", r.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: step %d is %+v, replay has %+v", r.name, i, got[i], want[i])
			}
		}
		// The fixtures are the goldens' runs: their rows are the golden.
		so := BuildSimObs(r.cfg, r.res, r.cfg.ObsWindow, r.cfg.SLO)
		var rows bytes.Buffer
		for _, row := range so.Rows {
			if err := obs.WriteRowJSONL(&rows, row); err != nil {
				t.Fatal(err)
			}
		}
		golden, err := os.ReadFile("../../cmd/aitax/testdata/" + r.golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rows.Bytes(), golden) {
			t.Fatalf("%s: rows differ from %s", r.name, r.golden)
		}
	}
}

// Little's law holds exactly over the step log: the integral of
// requests in the system over the run equals the sum of served
// latencies in integer nanoseconds. The admitted-queue depth never goes
// negative and drains to zero, and every offered request is served,
// rejected or shed exactly once.
func TestStepLogLittlesLawAndConservation(t *testing.T) {
	for _, r := range stepRuns(t) {
		var inSystem, queued, offered, served, refused int
		var area, last time.Duration
		for _, st := range walked(r.res) {
			area += time.Duration(inSystem) * (st.at - last)
			last = st.at
			switch st.kind {
			case evArrive:
				offered++
				inSystem++
				queued++
			case evRefuse:
				offered++
				refused++
			case evStart:
				if queued--; queued < 0 {
					t.Fatalf("%s: queue depth negative at %v (request %d)", r.name, st.at, st.id)
				}
			case evFinish:
				inSystem--
				served++
			}
		}
		var latency time.Duration
		var wantServed, rejected, shed int
		for _, o := range r.res.Outcomes {
			switch {
			case o.Shed:
				shed++
			case o.Rejected:
				rejected++
			default:
				wantServed++
				latency += o.Latency()
			}
		}
		if area != latency {
			t.Errorf("%s: requests in system integrate to %d ns, served latencies sum to %d ns", r.name, area, latency)
		}
		if queued != 0 || inSystem != 0 {
			t.Errorf("%s: run ends with %d queued and %d in system", r.name, queued, inSystem)
		}
		if offered != len(r.arrivals) || served != wantServed || refused != rejected+shed ||
			served+rejected+shed != offered {
			t.Errorf("%s: offered %d (arrivals %d) = served %d (outcomes %d) + rejected %d + shed %d; refusal steps %d",
				r.name, offered, len(r.arrivals), served, wantServed, rejected, shed, refused)
		}
		if refused == 0 {
			t.Errorf("%s: nothing refused, the refusal path is untested", r.name)
		}
	}
}

// An arrival list out of time order is refused: the simulator keeps one
// arrival pending at a time, in list order.
func TestSimulateRejectsUnsortedArrivals(t *testing.T) {
	cfg := qosConfig(t).Defaults()
	arrivals := storm("EfficientNet-Lite0")
	arrivals[3], arrivals[4] = arrivals[4], arrivals[3]
	if _, err := Simulate(cfg, buildTable(t, cfg, 0), arrivals, false); err == nil {
		t.Fatal("arrivals out of time order simulated")
	}
}

// A QoS run offered no arrivals ends at time zero without a single
// controller decision: the tick armed at start is cancelled when the
// idle core closes.
func TestSimulateWithoutArrivalsTakesNoTick(t *testing.T) {
	cfg := qosConfig(t).Defaults()
	res, err := Simulate(cfg, buildTable(t, cfg, 0), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.End != 0 || res.Degradation == nil || res.Degradation.Ticks != 0 {
		t.Fatalf("End = %v, Degradation = %+v; want End 0 and 0 ticks", res.End, res.Degradation)
	}
}
