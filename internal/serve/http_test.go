package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func newTestServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	cfg := testConfig(t)
	cfg.Models = DefaultModels()
	cfg.BatchWindow = 0 // immediate dispatch unless a test overrides
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestHTTPClassifyHappyPath(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	if out["model"] != "MobileNet 1.0 v1" {
		t.Fatalf("default classify model %v", out["model"])
	}
	if out["batch_size"].(float64) != 1 {
		t.Fatalf("batch size %v, want 1", out["batch_size"])
	}
	if out["infer_ms"].(float64) <= 0 || out["service_ms"].(float64) <= out["infer_ms"].(float64) {
		t.Fatalf("implausible accounting: %v", out)
	}
}

func TestHTTPUnknownModelIs404(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{"model":"No Such Model"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %v", resp.StatusCode, out)
	}
	if !strings.Contains(out["error"].(string), "unknown model") {
		t.Fatalf("error %q does not name the unknown model", out["error"])
	}
}

func TestHTTPTaskMismatchIs400(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, out := postJSON(t, ts.URL+"/v1/detect", `{"model":"MobileNet 1.0 v1"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %v", resp.StatusCode, out)
	}
}

func TestHTTPOversizedBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, nil)
	body := `{"model":"` + strings.Repeat("x", maxInferBody) + `"}`
	resp, out := postJSON(t, ts.URL+"/v1/classify", body)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %v", resp.StatusCode, out)
	}
}

func TestHTTPMalformedJSONIs400(t *testing.T) {
	_, ts := newTestServer(t, nil)
	for _, body := range []string{`{`, `{"model":`, `not json`, `{"model":42}`, `[]`, `{"class":"x"`} {
		resp, out := postJSON(t, ts.URL+"/v1/classify", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400: %v", body, resp.StatusCode, out)
		}
	}
}

func TestHTTPNotLoadedIs404(t *testing.T) {
	// Load only the classifier; a catalog model that is not loaded is
	// still a 404, with a hint at /v1/models.
	_, ts := newTestServer(t, func(c *Config) { c.Models = DefaultModels()[:1] })
	resp, out := postJSON(t, ts.URL+"/v1/segment", `{"model":"Deeplab-v3 MobileNet-v2"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404: %v", resp.StatusCode, out)
	}
	if !strings.Contains(out["error"].(string), "not loaded") {
		t.Fatalf("error %q does not say the model is unloaded", out["error"])
	}
}

func TestHTTPAdmissionControl429(t *testing.T) {
	srv, ts := newTestServer(t, func(c *Config) {
		c.QueueDepth = 1
		c.MaxBatch = 8
		c.BatchWindow = time.Minute // hold the batch open
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
	// Wait for the first request to occupy the queue slot.
	waitQueued(t, srv, "MobileNet 1.0 v1", 1)
	resp, out := postJSON(t, ts.URL+"/v1/classify", `{}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %v", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := srv.Metrics().Counter("aitax_serve_rejected_total{model=\"MobileNet 1.0 v1\"}"); got != 1 {
		t.Fatalf("rejected counter %v, want 1", got)
	}
	// Close flushes the held batch; the first request completes.
	srv.Close()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("held request finished with %d, want 200", code)
	}
}

func TestHTTPModelsAndHealth(t *testing.T) {
	_, ts := newTestServer(t, nil)
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 3 {
		t.Fatalf("got %d models, want 3", len(list))
	}
	if list[0]["endpoint"] != "/v1/classify" {
		t.Fatalf("first model endpoint %q", list[0]["endpoint"])
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hz.StatusCode)
	}
	// One inference populates the registry the /metrics endpoint serves.
	postJSON(t, ts.URL+"/v1/classify", `{}`)
	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	body, err := io.ReadAll(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "aitax_serve_requests_total") {
		t.Fatal("metrics endpoint missing serve counters")
	}
}

// FuzzInferBody sends arbitrary bodies to /v1/classify on one shared
// server. Whatever the bytes, the answer is a status a client can act
// on: never a panic, and never a 5xx other than 503. The handler is
// driven directly, so a panic fails the target instead of being
// swallowed by net/http's per-connection recovery.
func FuzzInferBody(f *testing.F) {
	for _, seed := range []string{
		"",
		`{}`,
		`{"model":"MobileNet 1.0 v1"}`,
		`{"model":"MobileNet 1.0 v1","class":"interactive"}`,
		`{"class":"bogus"}`,
		`{"model":"SSD MobileNet v2"}`,
		`{"model":"` + strings.Repeat("x", maxInferBody) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	cfg := testConfig(f)
	cfg.Models = DefaultModels()
	cfg.BatchWindow = 0
	srv, err := NewServer(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/classify", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("body %q: status %d: %s", body, rec.Code, rec.Body)
		}
	})
}
