package serve

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	taxcore "aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/tflite"
)

// qosServerConfig mirrors qosConfig for the wall-clock frontend: the
// EfficientNet -> MobileNet downshift pair, an SLO to feed the burn
// signal, and a ladder ticking so slowly the background loop never
// interferes with a test that sets the level by hand.
func qosServerConfig(c *Config, t *testing.T) {
	t.Helper()
	eff, err := models.ByName("EfficientNet-Lite0")
	if err != nil {
		t.Fatal(err)
	}
	c.Models = append(c.Models, eff)
	c.SLO = []obs.Objective{{Model: "EfficientNet-Lite0", Latency: 300 * time.Millisecond, Target: 0.95}}
	c.QoS = &QoSPolicy{
		Ladder:        qos.Ladder{Tick: time.Hour},
		Downshift:     map[string]string{"EfficientNet-Lite0": "MobileNet 1.0 v1"},
		SteerDelegate: tflite.DelegateGPU,
	}
}

// forceLevel climbs the server's controller to the requested rung by
// feeding it saturated-queue ticks under the server mutex.
func forceLevel(t *testing.T, srv *Server, level int) {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i := 0; i < level; i++ {
		srv.core.qs.ctl.TickAt(time.Duration(i)*time.Millisecond, qos.Signals{QueueFrac: 1})
	}
	if got := srv.core.qs.ctl.Level(); got != level {
		t.Fatalf("forced level %d, got %d", level, got)
	}
}

func TestHTTPBadClassIs400(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{"class":"bogus"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %v", resp.StatusCode, out)
	}
	if !strings.Contains(out["error"].(string), "bogus") {
		t.Fatalf("error %q does not name the bad class", out["error"])
	}
}

func TestHTTPShedsBestEffortUnderBrownout(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t)
	})
	forceLevel(t, srv, 1)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{"class":"best-effort"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed 503 without Retry-After")
	}
	if !strings.Contains(out["error"].(string), "shedding") {
		t.Fatalf("shed error %q", out["error"])
	}
	if got := srv.Metrics().Counter(`aitax_qos_shed_total{class="best-effort"}`); got != 1 {
		t.Fatalf("shed counter %v, want 1", got)
	}
	// Protected classes still get served at level 1.
	resp, out = postJSON(t, ts.URL+"/v1/classify", `{"class":"interactive"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("interactive status %d under L1: %v", resp.StatusCode, out)
	}
}

func TestHTTPDownshiftAndSteerAtTopRung(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t)
	})
	forceLevel(t, srv, qos.NumRungs)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{"model":"EfficientNet-Lite0"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["model"] != "EfficientNet-Lite0" {
		t.Fatalf("response model %v, want the requested name", out["model"])
	}
	if out["served_by"] != "MobileNet 1.0 v1" {
		t.Fatalf("served_by %v, want the downshift target", out["served_by"])
	}
	if got := srv.Metrics().Counter(`aitax_qos_downshift_total{model="EfficientNet-Lite0"}`); got != 1 {
		t.Fatalf("downshift counter %v, want 1", got)
	}
	if got := srv.Metrics().Counter("aitax_qos_steered_batches_total"); got < 1 {
		t.Fatalf("steered counter %v, want >= 1", got)
	}
	srv.mu.Lock()
	deg := srv.core.qs.deg
	srv.mu.Unlock()
	if deg.Downshifted != 1 || deg.SteeredBatches < 1 {
		t.Fatalf("degradation record %+v", deg)
	}
}

func TestHTTPQoSLoopTicksOnWallClock(t *testing.T) {
	srv, _ := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t)
		c.QoS.Ladder.Tick = 2 * time.Millisecond
		c.QoS.Observe = true
	})
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		ticks := srv.core.qs.deg.Ticks
		srv.mu.Unlock()
		if ticks >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("qos loop never ticked")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestHTTPShutdownDrainsOpenWindows(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = time.Minute // hold the batch open until drain
		c.MaxBatch = 8
	})
	first := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(`{}`))
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	waitQueued(t, srv, "MobileNet 1.0 v1", 1)
	// Shutdown flushes the open window: the queued request is served,
	// not dropped, and the drain completes within the deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", code)
	}
	// Admission during/after drain answers 503 with a Retry-After.
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("drain 503 without Retry-After")
	}
}

func TestHTTPCancelledRequestLeavesQueue(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = time.Minute // keep the request queued
		c.MaxBatch = 8
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/classify", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	q := srv.core.queues["MobileNet 1.0 v1"]
	for {
		srv.mu.Lock()
		queued := q.queued
		srv.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request returned without error")
	}
	// The abandoned request is pulled out before dispatch: queue slot
	// freed, window timer stopped, and it counts as cancelled.
	for {
		srv.mu.Lock()
		queued, pending, window := q.queued, len(q.pending), q.window
		srv.mu.Unlock()
		if queued == 0 && pending == 0 && window == (timer{}) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled request not removed: queued %d pending %d", queued, pending)
		}
		time.Sleep(time.Millisecond)
	}
	for {
		if srv.Metrics().Counter(`aitax_serve_cancelled_total{model="MobileNet 1.0 v1"}`) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled counter never incremented")
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued polls until model's queue holds n admitted requests.
func waitQueued(t *testing.T, srv *Server, model string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		srv.mu.Lock()
		queued := srv.core.queues[model].queued
		srv.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s queue holds %d, want %d", model, queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// postAsync posts body to url in the background and delivers the
// status (-1 on a transport error, e.g. a cancelled context).
func postAsync(ctx context.Context, url, body string) <-chan int {
	code := make(chan int, 1)
	go func() {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			code <- -1
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			code <- -1
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

// A shed request burns every objective covering its model, as in the
// simulator: shedding is honest about the traffic it sacrifices, so
// /v1/slo does not over-report compliance during brownout.
func TestHTTPShedBurnsCoveringSLO(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t)
		c.ObsWindow = time.Hour
	})
	forceLevel(t, srv, 1)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{"model":"EfficientNet-Lite0","class":"best-effort"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want a 503 shed: %v", resp.StatusCode, out)
	}
	if got := srv.rec.SumCounter(obs.BadSeries(srv.cfg.SLO[0]), 1); got != 1 {
		t.Fatalf("shed request burned %v of the covering objective, want 1", got)
	}
}

// A served request records both halves of its queueing: batch wait is
// arrival to flush, dispatch wait flush to executor pickup, and
// together they are the response's queue_ms.
func TestHTTPRecordsBatchAndDispatchWait(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.BatchWindow = 20 * time.Millisecond
		c.ObsWindow = time.Hour
	})
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	mobilenet := obs.SeriesFor("MobileNet 1.0 v1")
	bw := srv.rec.MergedHist(mobilenet.BatchWait, 1)
	dw := srv.rec.MergedHist(mobilenet.DispatchWait, 1)
	if bw.Count() != 1 || dw.Count() != 1 {
		t.Fatalf("batch-wait %d and dispatch-wait %d observations, want 1 each", bw.Count(), dw.Count())
	}
	if bw.Sum() < 20 {
		t.Fatalf("batch wait %vms shorter than the 20ms window", bw.Sum())
	}
	if q := out["queue_ms"].(float64); math.Abs(bw.Sum()+dw.Sum()-q) > 1e-9 {
		t.Fatalf("batch wait %v + dispatch wait %v != queue_ms %v", bw.Sum(), dw.Sum(), q)
	}
}

// A request refused while draining was never offered: like a 4xx
// validation failure it counts in neither requests_total nor the
// recorder's offered series.
func TestHTTPDrainingRefusalIsNotCounted(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) { c.ObsWindow = time.Hour })
	srv.Close()
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %v", resp.StatusCode, out)
	}
	if got := srv.Metrics().Counter(`aitax_serve_requests_total{model="MobileNet 1.0 v1"}`); got != 0 {
		t.Fatalf("draining refusal counted in requests_total: %v", got)
	}
	if got := srv.rec.SumCounter(obs.SeriesFor(obs.AllModels).Offered, 1); got != 0 {
		t.Fatalf("draining refusal counted as offered: %v", got)
	}
}

// Every request that reached admission is accounted exactly once:
// requests_total equals the client's own tally of 200, 429, 503-shed
// and cancelled responses, and the recorder's offered series splits
// into served + rejected + shed + cancelled. A post-drain 503 counts
// nowhere.
func TestHTTPConservesRequests(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.Models = DefaultModels()[:1]
		qosServerConfig(c, t)
		c.QueueDepth = 2
		c.MaxBatch = 8
		c.BatchWindow = time.Minute // hold admitted requests until drain
		c.ObsWindow = time.Hour
	})
	url, model := ts.URL+"/v1/classify", "MobileNet 1.0 v1"
	tally := map[int]int{}
	forceLevel(t, srv, 1)
	for i := 0; i < 3; i++ {
		resp, _ := postJSON(t, url, `{"class":"best-effort"}`)
		tally[resp.StatusCode]++
	}

	ctx, cancel := context.WithCancel(context.Background())
	gone := postAsync(ctx, url, `{}`)
	waitQueued(t, srv, model, 1)
	cancel()
	if code := <-gone; code != -1 {
		t.Fatalf("cancelled request finished with %d", code)
	}
	tally[-1]++
	for deadline := time.Now().Add(5 * time.Second); srv.rec.SumCounter(obs.SeriesFor(model).Cancelled, 1) != 1; {
		if time.Now().After(deadline) {
			t.Fatal("cancelled request never recorded")
		}
		time.Sleep(time.Millisecond)
	}

	var held []<-chan int
	for i := 0; i < 2; i++ {
		held = append(held, postAsync(context.Background(), url, `{}`))
	}
	waitQueued(t, srv, model, 2)
	resp, _ := postJSON(t, url, `{}`)
	tally[resp.StatusCode]++

	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, c := range held {
		tally[<-c]++
	}
	if resp, _ := postJSON(t, url, `{}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain status %d, want 503", resp.StatusCode)
	}

	want := map[int]int{http.StatusServiceUnavailable: 3, -1: 1, http.StatusTooManyRequests: 1, http.StatusOK: 2}
	if !reflect.DeepEqual(tally, want) {
		t.Fatalf("client tally %v, want %v", tally, want)
	}
	total := 0.0
	for _, m := range srv.cfg.Models {
		total += srv.Metrics().Counter(`aitax_serve_requests_total{model="` + m.Name + `"}`)
	}
	if total != 7 {
		t.Fatalf("requests_total %v, client saw 7 admission verdicts", total)
	}
	all := obs.SeriesFor(obs.AllModels)
	sum := func(series string) float64 { return srv.rec.SumCounter(series, 1) }
	offered := sum(all.Offered)
	parts := sum(all.Served) + sum(all.Rejected) + sum(all.Shed) + sum(all.Cancelled)
	if offered != 7 || parts != offered {
		t.Fatalf("recorder offered %v, served+rejected+shed+cancelled %v, want 7 each", offered, parts)
	}
}

// TestHTTPLoneRequestMatchesCostTable is the batch-1 harness agreement:
// a lone HTTP request is priced exactly as the simulator's table prices
// a batch of one — service is the dispatch overhead plus the entry's
// service, inference the entry's inference stage — on the serving
// delegate and, at the top brownout rung, on the steer delegate. The
// server's own table then holds that same entry.
func TestHTTPLoneRequestMatchesCostTable(t *testing.T) {
	for _, steered := range []bool{false, true} {
		srv, ts := newTestServer(t, func(c *Config) {
			c.Models = DefaultModels()[:1]
			qosServerConfig(c, t)
		})
		table := buildTable(t, srv.cfg, 0)
		if steered {
			forceLevel(t, srv, qos.NumRungs)
		}
		for _, m := range srv.cfg.Models {
			resp, out := postJSON(t, ts.URL+"/v1/classify", fmt.Sprintf(`{"model":%q}`, m.Name))
			if resp.StatusCode != http.StatusOK || out["batch_size"] != 1.0 {
				t.Fatalf("%s (steered %v): status %d, %v", m.Name, steered, resp.StatusCode, out)
			}
			served := m.Name
			if by, ok := out["served_by"].(string); ok {
				served = by
			}
			want := table.cost(served, 1, steered)
			srv.table.mu.RLock()
			got, ok := srv.table.entries[costKey{served, 1, steered}]
			srv.table.mu.RUnlock()
			if !ok || got != want {
				t.Errorf("%s (steered %v): server table entry %+v (present %v), want %+v", m.Name, steered, got, ok, want)
			}
			if got := out["service_ms"]; got != ms(srv.cfg.DispatchCost+want.Service) {
				t.Errorf("%s (steered %v): service_ms %v, want %v", m.Name, steered, got, ms(srv.cfg.DispatchCost+want.Service))
			}
			if got := out["infer_ms"]; got != ms(want.Sum.Stage[taxcore.StageInference]) {
				t.Errorf("%s (steered %v): infer_ms %v, want %v", m.Name, steered, got, ms(want.Sum.Stage[taxcore.StageInference]))
			}
		}
		if n := srv.Metrics().Counter("aitax_qos_steered_batches_total"); (n > 0) != steered {
			t.Fatalf("steered %v, but %v batches ran on the steer delegate", steered, n)
		}
	}
}
