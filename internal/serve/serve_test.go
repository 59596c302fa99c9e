package serve

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	taxcore "aitax/internal/core"
	"aitax/internal/loadgen"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// testConfig is a small, fast serving config: one classification model.
func testConfig(t testing.TB) Config {
	t.Helper()
	p, err := soc.PlatformByName("Google Pixel 3")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Platform:     p,
		DType:        tensor.UInt8,
		Delegate:     tflite.DelegateNNAPI,
		Models:       DefaultModels()[:1], // MobileNet 1.0 v1
		Entry:        taxcore.StagePre,
		Workers:      1,
		BatchWindow:  2 * time.Millisecond,
		MaxBatch:     4,
		QueueDepth:   4,
		DispatchCost: 200 * time.Microsecond,
		Seed:         42,
	}
	return cfg
}

func buildTable(t *testing.T, cfg Config, parallel int) *CostTable {
	t.Helper()
	table, err := BuildCostTable(context.Background(), cfg, parallel, nil)
	if err != nil {
		t.Fatal(err)
	}
	return table
}

func TestCostTableParallelismIndependent(t *testing.T) {
	cfg := testConfig(t)
	seq := buildTable(t, cfg, 1)
	par := buildTable(t, cfg, 4)
	if !reflect.DeepEqual(seq.entries, par.entries) {
		t.Fatal("cost table differs between parallel 1 and 4")
	}
	c1 := seq.cost(cfg.Models[0].Name, 1, false)
	if infer := c1.Sum.Stage[taxcore.StageInference]; c1.Service <= 0 || infer <= 0 || infer >= c1.Service {
		t.Fatalf("implausible batch-1 cost: %+v", c1)
	}
	c4 := seq.cost(cfg.Models[0].Name, 4, false)
	if c4.Service <= c1.Service {
		t.Fatalf("batch 4 (%v) not costlier than batch 1 (%v)", c4.Service, c1.Service)
	}
}

func TestSimulateReportDeterministicAcrossParallelism(t *testing.T) {
	cfg := testConfig(t)
	spec := loadgen.Spec{
		Seed:   7,
		Phases: []loadgen.Phase{{QPS: 200, Duration: 300 * time.Millisecond}},
		Mix:    []loadgen.Share{{Model: cfg.Models[0].Name, Weight: 1}},
	}
	arrivals, err := spec.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var reports []string
	for _, par := range []int{1, 2, 8} {
		table := buildTable(t, cfg, par)
		res, err := Simulate(cfg, table, arrivals, true)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, res.Report(cfg, "200x300ms"))
	}
	if reports[0] != reports[1] || reports[0] != reports[2] {
		t.Fatal("load report differs across cost-table parallelism")
	}
	if len(reports[0]) == 0 {
		t.Fatal("empty report")
	}
}

// at builds a handcrafted arrival list for one model.
func at(model string, offsets ...time.Duration) []loadgen.Arrival {
	arr := make([]loadgen.Arrival, len(offsets))
	for i, o := range offsets {
		arr[i] = loadgen.Arrival{ID: i, At: o, Model: model}
	}
	return arr
}

func TestBatchWindowFlushesPartialBatch(t *testing.T) {
	cfg := testConfig(t)
	table := buildTable(t, cfg, 0)
	name := cfg.Models[0].Name
	// Three riders inside one 2ms window: the batch flushes when the
	// window closes, 2ms after the first arrival.
	res, err := Simulate(cfg, table, at(name, 0, 500*time.Microsecond, time.Millisecond), false)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range res.Outcomes {
		if o.Rejected {
			t.Fatalf("request %d rejected", i)
		}
		if o.BatchSize != 3 {
			t.Fatalf("request %d in batch of %d, want 3", i, o.BatchSize)
		}
		if o.Flushed != sim.Time(cfg.BatchWindow) {
			t.Fatalf("request %d flushed at %v, want window close %v", i, o.Flushed, cfg.BatchWindow)
		}
	}
	// The first rider waited the full window; that wait is tax.
	first := res.Outcomes[0]
	if first.BatchWait() != cfg.BatchWindow {
		t.Fatalf("first rider batch wait %v, want %v", first.BatchWait(), cfg.BatchWindow)
	}
	if first.Tax() < first.BatchWait() {
		t.Fatalf("tax %v does not cover batch wait %v", first.Tax(), first.BatchWait())
	}
	if res.Batches[0].Batches != 1 {
		t.Fatalf("got %d batches, want 1", res.Batches[0].Batches)
	}
}

func TestMaxBatchFlushesEarly(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxBatch = 2
	table := buildTable(t, cfg, 0)
	name := cfg.Models[0].Name
	res, err := Simulate(cfg, table, at(name, 0, time.Millisecond), false)
	if err != nil {
		t.Fatal(err)
	}
	second := res.Outcomes[1]
	if second.BatchSize != 2 {
		t.Fatalf("batch size %d, want 2", second.BatchSize)
	}
	// The max-batch flush fires on the second arrival, not at the
	// window close.
	if second.Flushed != second.Arrival {
		t.Fatalf("flush at %v, want immediately at second arrival %v", second.Flushed, second.Arrival)
	}
}

func TestAdmissionControlRejectsAndCounts(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = 2
	cfg.MaxBatch = 2
	cfg.Workers = 1
	table := buildTable(t, cfg, 0)
	name := cfg.Models[0].Name
	// Six near-simultaneous arrivals against depth 2: the first two
	// admit (and enter service as one batch, freeing no depth until
	// service starts on the same tick), later ones hit a full queue
	// while the executor is busy.
	res, err := Simulate(cfg, table,
		at(name, 0, time.Microsecond, 2*time.Microsecond, 3*time.Microsecond, 4*time.Microsecond, 5*time.Microsecond),
		false)
	if err != nil {
		t.Fatal(err)
	}
	served, rejected := 0, 0
	for _, o := range res.Outcomes {
		if o.Rejected {
			rejected++
		} else {
			served++
		}
	}
	if rejected == 0 {
		t.Fatal("no rejections despite queue depth 2 under a 6-request burst")
	}
	if served+rejected != len(res.Outcomes) {
		t.Fatalf("served %d + rejected %d != offered %d", served, rejected, len(res.Outcomes))
	}
	reqs := res.Metrics.Counter(telemetry.Labeled("aitax_serve_requests_total", "model", name))
	rej := res.Metrics.Counter(telemetry.Labeled("aitax_serve_rejected_total", "model", name))
	if int(reqs) != len(res.Outcomes) || int(rej) != rejected {
		t.Fatalf("metrics disagree: requests %v rejected %v, want %d / %d",
			reqs, rej, len(res.Outcomes), rejected)
	}
}

func TestSimulateTracesSpansAndDepth(t *testing.T) {
	cfg := testConfig(t)
	table := buildTable(t, cfg, 0)
	name := cfg.Models[0].Name
	res, err := Simulate(cfg, table, at(name, 0, time.Millisecond), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced simulation produced no spans")
	}
	names := map[string]int{}
	for _, sp := range res.Spans {
		names[sp.Name]++
	}
	if names["request"] != 2 || names["batch"] != 1 {
		t.Fatalf("span census %v, want 2 request + 1 batch", names)
	}
	if len(res.Depth) == 0 {
		t.Fatal("no queue-depth samples")
	}
}

func TestSimulateRejectsUnknownArrivalModel(t *testing.T) {
	cfg := testConfig(t)
	table := buildTable(t, cfg, 0)
	_, err := Simulate(cfg, table, at("No Such Model", 0), false)
	if err == nil {
		t.Fatal("Simulate accepted an arrival for an unloaded model")
	}
	// A config without a platform fails with a typed error, not a panic
	// deep in the stack it would build.
	if _, err := MeasureBatch(context.Background(), Config{}.Defaults(), cfg.Models[0], 1); !errors.Is(err, ErrNoPlatform) {
		t.Fatalf("MeasureBatch without a platform: err = %v, want ErrNoPlatform", err)
	}
	if err := (Config{}).Defaults().Validate(); !errors.Is(err, ErrNoPlatform) {
		t.Fatalf("Validate without a platform: err = %v, want ErrNoPlatform", err)
	}
}
