package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"aitax/internal/plan"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestPrewarmWarmsFirstScrapeAndFirstRequest pins the prewarm satellite:
// a prewarmed server's very first /metrics scrape already carries the
// full serving series set (no outlier first window missing most
// series), and its first request compiles no plans — the plan tax was
// paid at startup.
func TestPrewarmWarmsFirstScrapeAndFirstRequest(t *testing.T) {
	// An un-prewarmed server's first scrape has none of the serving
	// series: nothing has touched the registry yet.
	_, coldTS := newTestServer(t, nil)
	if body := scrape(t, coldTS.URL); strings.Contains(body, "aitax_serve_requests_total") {
		t.Fatal("cold server's first scrape already lists serving series; the prewarm contrast is broken")
	}

	s, ts := newTestServer(t, nil)
	rep, err := s.Prewarm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, m := range s.cfg.Models {
		if tflite.Supported(m, s.cfg.DType, s.cfg.Delegate) {
			want++
		}
	}
	if rep.Jobs != want || want == 0 {
		t.Fatalf("prewarm ran %d jobs, want %d (one per supported loaded model)", rep.Jobs, want)
	}
	body := scrape(t, ts.URL)
	for _, series := range []string{
		`aitax_serve_requests_total{model="MobileNet 1.0 v1"}`,
		`aitax_serve_rejected_total{model="MobileNet 1.0 v1"}`,
		`aitax_serve_batches_total{model="MobileNet 1.0 v1"}`,
		"aitax_serve_batch_size",
		"aitax_serve_service_ms",
	} {
		if !strings.Contains(body, series) {
			t.Errorf("first scrape after prewarm is missing %s", series)
		}
	}
	// No fabricated traffic: the warmed counters read zero.
	if s.metrics.Counter(`aitax_serve_requests_total{model="MobileNet 1.0 v1"}`) != 0 {
		t.Fatal("prewarm fabricated request counts")
	}

	// The first real request reuses every prewarmed plan: zero compile
	// time and zero cache misses added.
	compile0 := plan.Shared.CompileTime()
	_, misses0, _ := plan.Shared.Stats()
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request failed: %d %v", resp.StatusCode, out)
	}
	if d := plan.Shared.CompileTime() - compile0; d != 0 {
		t.Fatalf("first request after prewarm spent %v compiling plans, want zero", d)
	}
	if _, misses, _ := plan.Shared.Stats(); misses != misses0 {
		t.Fatalf("first request after prewarm missed the plan cache %d times, want zero", misses-misses0)
	}
}

// TestPrewarmConfigCoversTheSteerDelegate pins that a QoS policy's
// steer delegate is prewarmed too: brownout level 3 must not pay plan
// compilation in the middle of an overload it exists to relieve.
func TestPrewarmConfigCoversTheSteerDelegate(t *testing.T) {
	cfg := testConfig(t)
	rep, err := PrewarmConfig(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Jobs != len(cfg.Models) {
		t.Fatalf("plain config ran %d jobs, want %d", rep.Jobs, len(cfg.Models))
	}
	qcfg := qosConfig(t)
	qrep, err := PrewarmConfig(context.Background(), qcfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(qcfg.Models); qrep.Jobs != want {
		t.Fatalf("QoS config ran %d prewarm jobs, want %d (serving + steer delegate)", qrep.Jobs, want)
	}
}

// TestPrewarmFillsTheServerCostTable pins that Prewarm keeps what it
// measures: it leaves exactly one entry per (model, 1, unsteered), and
// a lone request to each loaded model and a repeat of it read those
// entries, adding none and carrying identical accounting.
func TestPrewarmFillsTheServerCostTable(t *testing.T) {
	// Float32 runs all three default models on NNAPI; Deeplab has no
	// quantized variant.
	s, ts := newTestServer(t, func(c *Config) { c.DType = tensor.Float32 })
	if _, err := s.Prewarm(context.Background()); err != nil {
		t.Fatal(err)
	}
	var want []costKey
	for _, m := range s.cfg.Models {
		want = append(want, costKey{m.Name, 1, false})
	}
	checkKeys := func(when string) {
		t.Helper()
		s.table.mu.RLock()
		defer s.table.mu.RUnlock()
		for _, key := range want {
			if _, ok := s.table.entries[key]; !ok {
				t.Fatalf("%s: no entry for %+v", when, key)
			}
		}
		if len(s.table.entries) != len(want) {
			t.Fatalf("%s: table holds %d entries, want %d", when, len(s.table.entries), len(want))
		}
	}
	checkKeys("after prewarm")
	for _, m := range s.cfg.Models {
		var path string
		for _, ep := range endpointTask {
			if ep.task == m.Task {
				path = ep.path
			}
		}
		var first map[string]any
		for i := 0; i < 2; i++ {
			resp, out := postJSON(t, ts.URL+path, fmt.Sprintf(`{"model":%q}`, m.Name))
			if resp.StatusCode != http.StatusOK || out["batch_size"] != 1.0 {
				t.Fatalf("%s request %d: status %d, %v", m.Name, i, resp.StatusCode, out)
			}
			if i == 0 {
				first = out
			} else if out["service_ms"] != first["service_ms"] || out["infer_ms"] != first["infer_ms"] {
				t.Fatalf("%s repeat priced differently: %v, then %v", m.Name, first, out)
			}
		}
	}
	checkKeys("after two requests per model")
}
