package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"aitax/internal/loadgen"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/tflite"
	"aitax/internal/thermal"
)

// qosConfig is testConfig plus a second classification model (the
// downshift target) and a fast-tick brownout policy driven mostly by
// queue pressure.
func qosConfig(t *testing.T) Config {
	t.Helper()
	cfg := testConfig(t)
	eff, err := models.ByName("EfficientNet-Lite0")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Models = append(cfg.Models, eff)
	// On this device EfficientNet-Lite0 is the expensive model (~226ms
	// NNAPI b1) and MobileNet the cheap fallback (~81ms), so the
	// downshift runs EfficientNet -> MobileNet. The 300ms objective is
	// comfortably met by any uncontended request and breached by queue
	// waits during the storm.
	cfg.SLO = []obs.Objective{{Model: "EfficientNet-Lite0", Latency: 300 * time.Millisecond, Target: 0.95}}
	cfg.QoS = &QoSPolicy{
		Ladder: qos.Ladder{
			Tick:       5 * time.Millisecond,
			Hold:       2,
			ShortTicks: 2,
			LongTicks:  4,
		},
		Downshift:     map[string]string{"EfficientNet-Lite0": "MobileNet 1.0 v1"},
		SteerDelegate: tflite.DelegateGPU,
	}
	return cfg
}

// storm builds a burst-lull-calm arrival schedule: a dense mixed-class
// burst that overflows the queue and torches the SLO, a lull long
// enough for the backlog to drain and the burn windows to clear, then a
// sparse standard-class tail the system can serve within the objective
// at level 0 — so the ladder must climb all the way up and then walk
// all the way back down.
func storm(model string) []loadgen.Arrival {
	var arr []loadgen.Arrival
	id := 0
	add := func(at time.Duration, class string) {
		arr = append(arr, loadgen.Arrival{ID: id, At: at, Model: model, Class: class})
		id++
	}
	// Burst: one arrival per ms for 80ms, alternating standard and
	// best-effort.
	for i := 0; i < 80; i++ {
		class := ""
		if i%2 == 1 {
			class = "best-effort"
		}
		add(time.Duration(i)*time.Millisecond, class)
	}
	// Calm tail after a lull: one standard arrival per 250ms.
	for i := 0; i < 8; i++ {
		add(900*time.Millisecond+time.Duration(i)*250*time.Millisecond, "")
	}
	return arr
}

func TestParseDownshift(t *testing.T) {
	m, err := ParseDownshift("A=B, C = D")
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 2 || m["A"] != "B" || m["C"] != "D" {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{"", "A", "A=", "=B", "A=B,A=C"} {
		if _, err := ParseDownshift(bad); err == nil {
			t.Errorf("ParseDownshift(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParseDownshift: any spec either fails with an error or parses to
// trimmed, non-empty pairs that re-parse to the same map once joined
// back in sorted order.
func FuzzParseDownshift(f *testing.F) {
	for _, seed := range []string{
		"A=B", "A=B, C = D", "", "A", "A=", "=B", "A=B,A=C", " , A=B ,", "A=B=C",
		"EfficientNet-Lite0=MobileNet 1.0 v1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := ParseDownshift(spec)
		if err != nil {
			return
		}
		pairs := make([]string, 0, len(m))
		for from, to := range m {
			if from == "" || to == "" || from != strings.TrimSpace(from) || to != strings.TrimSpace(to) {
				t.Fatalf("ParseDownshift(%q) gave untrimmed or empty pair %q=%q", spec, from, to)
			}
			pairs = append(pairs, from+"="+to)
		}
		sort.Strings(pairs)
		again, err := ParseDownshift(strings.Join(pairs, ","))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("ParseDownshift(%q) = %v, but its sorted join re-parses to %v, %v", spec, m, again, err)
		}
	})
}

func TestValidateQoSPolicy(t *testing.T) {
	good := qosConfig(t)
	if err := good.Defaults().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no slo", func(c *Config) { c.SLO = nil }},
		{"steer equals serving delegate", func(c *Config) { c.QoS.SteerDelegate = c.Delegate }},
		{"downshift source unloaded", func(c *Config) { c.QoS.Downshift = map[string]string{"AlexNet": "EfficientNet-Lite0"} }},
		{"downshift target unloaded", func(c *Config) { c.QoS.Downshift = map[string]string{"MobileNet 1.0 v1": "AlexNet"} }},
		{"downshift to itself", func(c *Config) {
			c.QoS.Downshift = map[string]string{"EfficientNet-Lite0": "EfficientNet-Lite0"}
		}},
		{"bad ladder", func(c *Config) {
			// Explicit non-zero thresholds survive Defaults(); exit equal to
			// enter kills the hysteresis band and must be rejected.
			c.QoS.Ladder.Enter = [qos.NumRungs]float64{0.5, 0.7, 0.9}
			c.QoS.Ladder.Exit = [qos.NumRungs]float64{0.5, 0.7, 0.9}
		}},
		{"bad thermal", func(c *Config) { c.QoS.Thermal = &thermal.Model{} }},
	}
	for _, tc := range cases {
		cfg := qosConfig(t)
		tc.mutate(&cfg)
		if err := cfg.Defaults().Validate(); err == nil {
			t.Errorf("%s: Validate succeeded, want error", tc.name)
		}
	}
	// Chained downshift needs a third classification model. Validation
	// never measures, so SqueezeNet's missing quantized variant is fine.
	cfg := qosConfig(t)
	sq, err := models.ByName("SqueezeNet")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Models = append(cfg.Models, sq)
	cfg.QoS.Downshift = map[string]string{
		"MobileNet 1.0 v1":   "EfficientNet-Lite0",
		"EfficientNet-Lite0": "SqueezeNet",
	}
	if err := cfg.Defaults().Validate(); err == nil {
		t.Error("chained downshift accepted")
	}
	// Cross-task downshift.
	cfg = qosConfig(t)
	dl, err := models.ByName("Deeplab-v3 MobileNet-v2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Models = append(cfg.Models, dl)
	cfg.QoS.Downshift = map[string]string{"MobileNet 1.0 v1": "Deeplab-v3 MobileNet-v2"}
	if err := cfg.Defaults().Validate(); err == nil {
		t.Error("cross-task downshift accepted")
	}
}

func TestBrownoutLadderEngagesAndRecovers(t *testing.T) {
	cfg := qosConfig(t).Defaults()
	table := buildTable(t, cfg, 0)
	res, err := Simulate(cfg, table, storm("EfficientNet-Lite0"), false)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Degradation
	if d == nil {
		t.Fatal("QoS run produced no degradation record")
	}
	if !d.FullyEngaged() {
		t.Fatalf("ladder never reached L%d: %+v", qos.NumRungs, d.Transitions)
	}
	if !d.Recovered() {
		t.Fatalf("ladder never recovered to L0: %+v", d.Transitions)
	}
	if d.Shed[qos.BestEffort] == 0 {
		t.Fatal("no best-effort traffic shed during the storm")
	}
	if d.Shed[qos.Interactive] != 0 || d.Shed[qos.Standard] != 0 {
		t.Fatalf("shed protected classes: %v", d.Shed)
	}
	if d.Downshifted == 0 {
		t.Fatal("no requests downshifted at L2+")
	}
	if d.SteeredBatches == 0 {
		t.Fatal("no batches steered at L3")
	}
	// Every shed/downshift is visible in the outcomes too.
	sheds, downshifted, steered := 0, 0, 0
	for _, o := range res.Outcomes {
		if o.Shed {
			sheds++
			if o.Class != qos.BestEffort {
				t.Fatalf("shed a %s request", o.Class)
			}
		}
		if o.ServedAs != "" {
			downshifted++
			if o.ServedAs != "MobileNet 1.0 v1" {
				t.Fatalf("downshifted to %q", o.ServedAs)
			}
		}
		if o.Steered {
			steered++
		}
	}
	if sheds != d.ShedTotal() || downshifted != d.Downshifted {
		t.Fatalf("outcome census (shed %d, downshift %d) disagrees with record (%d, %d)",
			sheds, downshifted, d.ShedTotal(), d.Downshifted)
	}
	if steered == 0 {
		t.Fatal("no steered outcomes")
	}
	// Transition timeline is ordered and starts with a climb from L0.
	for i, tr := range d.Transitions {
		if i > 0 && tr.At < d.Transitions[i-1].At {
			t.Fatalf("transitions out of order: %+v", d.Transitions)
		}
	}
	if d.Transitions[0].From != 0 || d.Transitions[0].To != 1 {
		t.Fatalf("first transition %+v, want L0->L1", d.Transitions[0])
	}
}

func TestBrownoutObserveBaselineActsNever(t *testing.T) {
	cfg := qosConfig(t)
	cfg.QoS.Observe = true
	cfg = cfg.Defaults()
	table := buildTable(t, cfg, 0)
	res, err := Simulate(cfg, table, storm("EfficientNet-Lite0"), false)
	if err != nil {
		t.Fatal(err)
	}
	d := res.Degradation
	if d == nil || !d.Observe {
		t.Fatalf("observe run not marked: %+v", d)
	}
	if len(d.Transitions) != 0 || d.ShedTotal() != 0 || d.Downshifted != 0 || d.SteeredBatches != 0 {
		t.Fatalf("frozen controller acted: %+v", d)
	}
	if d.Ticks == 0 {
		t.Fatal("frozen controller never ticked")
	}
	for _, o := range res.Outcomes {
		if o.Shed || o.ServedAs != "" || o.Steered {
			t.Fatalf("frozen run degraded an outcome: %+v", o)
		}
	}
}

func TestBrownoutReportDeterministicAcrossParallelism(t *testing.T) {
	arrivals := storm("EfficientNet-Lite0")
	var reports []string
	for _, par := range []int{1, 2, 8} {
		cfg := qosConfig(t).Defaults()
		table := buildTable(t, cfg, par)
		res, err := Simulate(cfg, table, arrivals, true)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, res.Report(cfg, "storm"))
	}
	if reports[0] != reports[1] || reports[0] != reports[2] {
		t.Fatal("degradation report differs across cost-table parallelism")
	}
	for _, want := range []string{"degradation anatomy", "per-class latency", "best-effort", "transitions"} {
		if !strings.Contains(reports[0], want) {
			t.Fatalf("report missing %q:\n%s", want, reports[0])
		}
	}
}

// thermalRun is the thermal-driven brownout scenario: the SLO covers
// EfficientNet, but the traffic is all MobileNet, so burn stays zero
// and the die is what climbs the ladder. A wide steer headroom band
// (20C) starts thermal pressure at 70C, between throttle start (72C)
// and trip (90C), so batches throttle first, then steer. tripAt, when
// positive, adds the fault plan's forced thermal trip.
func thermalRun(t *testing.T, tripAt time.Duration) (Config, *SimResult) {
	t.Helper()
	cfg := qosConfig(t)
	cfg.QoS.Ladder.Enter = [qos.NumRungs]float64{0.3, 0.4, 0.5}
	cfg.QoS.Ladder.Exit = [qos.NumRungs]float64{0.15, 0.2, 0.25}
	cfg.QoS.Ladder.SteerHeadroomC = 20
	th, err := thermal.Parse("tau=150ms,trip=90,start=72")
	if err != nil {
		t.Fatal(err)
	}
	cfg.QoS.Thermal = th
	cfg.Faults.ThermalTripAt = tripAt
	cfg = cfg.Defaults()
	table := buildTable(t, cfg, 0)
	// Steady near-saturating standard stream: MobileNet b1 is ~81ms of
	// NNAPI service, arrivals land every 70ms.
	var arrivals []loadgen.Arrival
	for i := 0; i < 30; i++ {
		arrivals = append(arrivals, loadgen.Arrival{
			ID: i, At: time.Duration(i) * 70 * time.Millisecond, Model: "MobileNet 1.0 v1",
		})
	}
	res, err := Simulate(cfg, table, arrivals, false)
	if err != nil {
		t.Fatal(err)
	}
	return cfg, res
}

func TestThermalSteeringEngagesBeforeTrip(t *testing.T) {
	// The trip never fires: steering engages from thermal pressure first.
	cfg, res := thermalRun(t, 0)
	d := res.Degradation
	if d.SteeredBatches == 0 {
		t.Fatalf("hot die never steered: %+v", d)
	}
	if d.ThrottledBatches == 0 {
		t.Fatalf("die above throttle start never throttled a batch: %+v", d)
	}
	// Steering must engage from thermal pressure before any hard trip.
	var steerAt time.Duration = -1
	for _, tr := range d.Transitions {
		if tr.To == qos.NumRungs {
			steerAt = tr.At
			break
		}
	}
	if steerAt < 0 {
		t.Fatalf("no L%d transition: %+v", qos.NumRungs, d.Transitions)
	}
	if d.Tripped && d.TripAt <= steerAt {
		t.Fatalf("trip at %v beat steering at %v", d.TripAt, steerAt)
	}
	if d.PeakTempC <= cfg.QoS.Thermal.ThrottleStartC {
		t.Fatalf("peak %gC never crossed throttle start %gC", d.PeakTempC, cfg.QoS.Thermal.ThrottleStartC)
	}
}

// The brownout storm never throttles or trips, so the thermal scenario's
// reports pin the DVFS-stretch and forced-trip paths byte for byte.
func TestThermalReportGolden(t *testing.T) {
	for _, tc := range []struct {
		tripAt time.Duration
		golden string
	}{
		{0, "thermal_report.golden"},
		{1500 * time.Millisecond, "thermal_trip_report.golden"},
	} {
		cfg, res := thermalRun(t, tc.tripAt)
		got := res.Report(cfg, "30x70ms")
		want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("report diverged from %s\n--- got ---\n%s\n--- want ---\n%s", tc.golden, got, want)
		}
	}
}
