package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var binary string

// TestMain builds the benchmark once: the parent re-executes its own
// binary for every repetition, so the test drives the real command.
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hostbench-test")
	if err != nil {
		panic(err)
	}
	binary = filepath.Join(dir, "hostbench")
	if out, err := exec.Command("go", "build", "-o", binary, ".").CombinedOutput(); err != nil {
		panic(string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

type benchFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestDeclaredMetricsMatch pins BENCHMARK.json to the metric lists the
// command reports.
func TestDeclaredMetricsMatch(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []struct{ Name, Unit string }, want []MetricDef) {
		if len(declared) != len(want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the command reports %d", kind, len(declared), len(want))
		}
		for i, d := range declared {
			if d.Name != want[i].Name || d.Unit != want[i].Unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", kind, i, d.Name, d.Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, EndToEnd)
	check("per_layer", bf.PerLayer, PerLayer)
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that each run is correct and emits every metric it must.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			w, trace := w, trace
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				cmd := exec.Command(binary, "--workload", w.Name, "--seed", "3", "--seconds", "1",
					"--trace", trace, "--tiny", "--out", t.TempDir())
				out, err := cmd.Output()
				if err != nil {
					t.Fatalf("exit: %v\n%s", err, out)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not a result: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v\n%s", res, out)
				}
				want := EndToEnd
				if trace == "1" {
					want = PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.Name, m, d.Unit)
					}
				}
				text := string(out)
				for _, name := range []string{"manifest ", "setup_s", w.Metric, "peak_rss_mb", "error_rate", "identical in every repetition"} {
					if !strings.Contains(text, name) {
						t.Errorf("report lacks %q", name)
					}
				}
				if trace == "1" && !strings.Contains(text, "self_ms.") {
					t.Error("traced report lacks layer self times")
				}
			})
		}
	}
}

// TestRejectsBadInvocation checks the command fails fast on bad flags.
func TestRejectsBadInvocation(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sweep", "--trace", "2"},
		{"--workload", "sweep", "--seconds", "0"},
	} {
		cmd := exec.Command(binary, args...)
		start := time.Now()
		out, err := cmd.Output()
		if err == nil || len(out) != 0 {
			t.Errorf("%v: exit %v, stdout %q", args, err, out)
		}
		if time.Since(start) > 10*time.Second {
			t.Errorf("%v took %v", args, time.Since(start))
		}
	}
}

// TestSelfTimes checks the self-time rule on overlapping children.
func TestSelfTimes(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: -1, Layer: "root", StartNS: 0, EndNS: 100},
		{ID: 1, Parent: 0, Layer: "kid", StartNS: 10, EndNS: 40},
		{ID: 2, Parent: 0, Layer: "kid", StartNS: 30, EndNS: 60},
		{ID: 3, Parent: 0, Layer: "kid", StartNS: 90, EndNS: 120},
	}
	self := SelfTimes(spans)
	if self["root"] != 40 { // 100 - union{[10,60), [90,100)}
		t.Errorf("root self = %d, want 40", self["root"])
	}
	if self["kid"] != 30+30+30 {
		t.Errorf("kid self = %d, want 90", self["kid"])
	}
}
