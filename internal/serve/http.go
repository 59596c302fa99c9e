package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"time"

	taxcore "aitax/internal/core"
	"aitax/internal/lab"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
)

// endpointTask maps each inference endpoint to the task it serves.
var endpointTask = []struct {
	path string
	task models.Task
}{
	{"/v1/classify", models.Classification},
	{"/v1/detect", models.ObjectDetection},
	{"/v1/segment", models.Segmentation},
}

// Server is the wall-clock HTTP frontend: the serving core behind
// real requests on real time. Batches are priced as lab jobs from the
// server's cost table, at most Config.Workers at once; a batch whose
// (model, size, steered) entry is missing measures it on a simulated
// executor stack first.
type Server struct {
	cfg     Config
	table   *CostTable
	mux     *http.ServeMux
	metrics *telemetry.Registry
	lab     *lab.Lab
	// retryAfter is the 429 Retry-After value in whole seconds, derived
	// from the batch window (a client retrying sooner than the window
	// cannot be admitted any faster).
	retryAfter string
	// start anchors the server's clock (see now).
	start time.Time
	rec   *obs.Recorder
	mon   *obs.Monitor
	// series is the recorder's series handles. Nothing writes to it
	// after NewServer, so the handlers share it without holding mu.
	series *seriesTable

	mu   sync.Mutex
	core *core // guarded by mu
	wg   sync.WaitGroup
}

// NewServer validates the config and builds the frontend with an empty
// cost table, so no warmup pass is needed: the first batch per (model,
// size, steered) measures its entry, and later ones read it.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		table: newCostTable(),
		mux:   http.NewServeMux(),
		// A long-running server takes unbounded traffic: the streaming
		// registry keeps /metrics memory flat (bucketed quantiles
		// instead of retained samples).
		metrics:    telemetry.NewStreamingRegistry(),
		lab:        &lab.Lab{Parallelism: 1},
		retryAfter: retryAfterSeconds(cfg.BatchWindow),
		start:      time.Now(),
	}
	c, err := newCore(cfg, s, s.metrics, s.run)
	if err != nil {
		return nil, err
	}
	c.onTransition = func(t qos.Tick) {
		s.rec.Add(s.now().Duration(), telemetry.Labeled("qos_transitions", "to", strconv.Itoa(t.Level)), 1)
	}
	s.core = c
	s.rec = obs.NewRecorder(obs.RecorderConfig{
		Window: cfg.ObsWindow,
		OnClose: func(row obs.Row) {
			if s.mon != nil {
				s.mon.OnRow(row)
			}
		},
	})
	s.series = newSeriesTable(s.rec, cfg, cfg.SLO)
	if len(cfg.SLO) > 0 {
		s.mon = obs.NewMonitor(cfg.SLO, s.rec.Window())
	}
	c.start()
	for _, ep := range endpointTask {
		ep := ep
		s.mux.HandleFunc(ep.path, func(w http.ResponseWriter, r *http.Request) {
			s.handleInfer(w, r, ep.task)
		})
	}
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/slo", s.handleSLO)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Prometheus text exposition format 0.0.4; runtime health and
		// SLO state are refreshed per scrape.
		obs.CollectRuntime(s.metrics)
		if s.mon != nil {
			s.mon.Export(s.metrics)
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.metrics.WritePrometheus(w); err != nil {
			// Headers are gone; all we can do is log the broken scrape.
			http.Error(w, "metrics write failed: "+err.Error(), http.StatusInternalServerError)
		}
	})
	// Live profiling surfaces, mounted on the same mux so the serving
	// frontend is introspectable without a second listener.
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s, nil
}

// retryAfterSeconds renders the batch window as a whole-second
// Retry-After value (minimum 1s, the header's resolution floor).
func retryAfterSeconds(window time.Duration) string {
	return strconv.Itoa(max(1, int(math.Ceil(window.Seconds()))))
}

// now is the server's position on its clock: time since start, the
// axis of the serving core and the streaming recorder alike.
func (s *Server) now() sim.Time { return sim.Time(time.Since(s.start)) }

// after runs f under the server mutex once d has passed: the serving
// core's batch windows and decision ticks on the wall clock.
func (s *Server) after(d time.Duration, f func()) timer {
	return timer{wall: time.AfterFunc(d, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		f()
	})}
}

func (s *Server) stop(t timer) { t.wall.Stop() }

// Watch renders the live terminal dashboard from the server's streaming
// recorder (the -watch flag's refresh body).
func (s *Server) Watch() string {
	d := &obs.Dashboard{Rec: s.rec, Mon: s.mon, Models: s.cfg.ModelNames()}
	return d.Render(s.now().Duration().Round(time.Millisecond))
}

// sloResponse is the /v1/slo JSON shape.
type sloResponse struct {
	Objective  string  `json:"objective"`
	Contract   string  `json:"contract"`
	Good       float64 `json:"good"`
	Bad        float64 `json:"bad"`
	Compliance float64 `json:"compliance"`
	BudgetUsed float64 `json:"budget_used"`
	BurnShort  float64 `json:"burn_short"`
	BurnLong   float64 `json:"burn_long"`
	Pages      int     `json:"pages"`
	Warns      int     `json:"warns"`
	Pass       bool    `json:"pass"`
}

// handleSLO reports each objective's compliance and live burn rate.
func (s *Server) handleSLO(w http.ResponseWriter, r *http.Request) {
	if s.mon == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no SLOs configured (start with -slo)"})
		return
	}
	burns := s.mon.CurrentBurn()
	out := make([]sloResponse, 0, len(s.cfg.SLO))
	for _, sum := range s.mon.Summaries() {
		b := burns[sum.Objective.Name()]
		out = append(out, sloResponse{
			Objective:  sum.Objective.Name(),
			Contract:   fmt.Sprintf("%g%% < %s", sum.Objective.Target*100, sum.Objective.Latency),
			Good:       sum.Good,
			Bad:        sum.Bad,
			Compliance: sum.Compliance,
			BudgetUsed: sum.BudgetUsed,
			BurnShort:  b[0],
			BurnLong:   b[1],
			Pages:      sum.Pages,
			Warns:      sum.Warns,
			Pass:       sum.Pass,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// Handler returns the frontend's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's registry (also served at /metrics).
func (s *Server) Metrics() *telemetry.Registry { return s.metrics }

// Close stops admitting requests and waits for in-flight batches.
func (s *Server) Close() { s.Shutdown(context.Background()) }

// Shutdown drains the server gracefully: admission immediately starts
// answering 503 with a Retry-After, every open micro-batch window is
// flushed so queued requests still get served, and in-flight batches
// have until ctx's deadline to complete. It returns ctx.Err() if the
// drain deadline expires first (batches then finish in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.core.close()
	for _, q := range s.core.order {
		s.core.flush(q)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// maxInferBody caps an inference request body. The body carries only a
// model name and a class, so anything near the cap is abuse, not input.
const maxInferBody = 64 << 10

// inferRequest is the request body of the inference endpoints.
type inferRequest struct {
	// Model is the Table-I model name; empty picks the endpoint's
	// default (the first loaded model of the endpoint's task).
	Model string `json:"model"`
	// Class is the request's QoS class: "interactive", "standard"
	// (default) or "best-effort". Under brownout, best-effort traffic is
	// shed first.
	Class string `json:"class"`
}

// inferResponse reports the request's fate and its AI-tax accounting.
// Queue time is wall clock (real batching delay on this host); the
// service, inference and compute-tax times are virtual (simulated
// execution on the configured SoC).
type inferResponse struct {
	Model string `json:"model"`
	Batch int    `json:"batch_size"`
	// QueueMS is wall-clock admission-to-service time.
	QueueMS float64 `json:"queue_ms"`
	// ServiceMS is the whole batch's virtual execution time.
	ServiceMS float64 `json:"service_ms"`
	// InferMS is this request's share of the batch's inference time.
	InferMS float64 `json:"infer_ms"`
	// TaxMS is queue wait plus this request's share of the batch's
	// pipeline tax and dispatch overhead.
	TaxMS float64 `json:"tax_ms"`
	// ServedBy, when set, is the cheaper model the brownout controller
	// downshifted this request to.
	ServedBy string `json:"served_by,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// resolveModel picks the request's model: an explicit name must exist
// in the catalog (404 otherwise, via models.ErrUnknownModel), be loaded
// (404), and match the endpoint's task (400); an empty name falls back
// to the endpoint's default loaded model.
func (s *Server) resolveModel(name string, task models.Task) (*models.Model, int, error) {
	if name == "" {
		for _, m := range s.cfg.Models {
			if m.Task == task {
				return m, 0, nil
			}
		}
		return nil, http.StatusNotFound, fmt.Errorf("no %s model loaded", task)
	}
	m, err := models.ByName(name)
	if err != nil {
		return nil, http.StatusNotFound, err // models.ErrUnknownModel
	}
	if _, ok := s.cfg.modelByName(m.Name); !ok {
		return nil, http.StatusNotFound, fmt.Errorf("model %q is not loaded (see /v1/models)", m.Name)
	}
	if m.Task != task {
		return nil, http.StatusBadRequest, fmt.Errorf("model %q is a %s model, not %s", m.Name, m.Task, task)
	}
	return m, 0, nil
}

func (s *Server) handleInfer(w http.ResponseWriter, req *http.Request, task models.Task) {
	if req.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var body inferRequest
	if req.Body != nil {
		if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, maxInferBody)).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
			return
		}
	}
	m, status, err := s.resolveModel(body.Model, task)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	cls, err := qos.ParseClass(body.Class)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	r := &request{out: Outcome{Model: m.Name, Class: cls}, done: make(chan error, 1)}
	s.mu.Lock()
	verdict := s.core.admit(r)
	offered, depth := r.out, 0
	if verdict == admitted {
		depth = r.q.queued
		s.core.enqueue(r)
	}
	s.mu.Unlock()

	at := offered.Arrival.Duration()
	if verdict != draining {
		s.series.recordOffered(s.series.model(offered.Model), &offered, at)
	}
	if verdict != admitted {
		// Every refusal tells the client when to come back, not just to
		// go away.
		status, msg := http.StatusServiceUnavailable, "server shutting down"
		switch verdict {
		case shed:
			msg = fmt.Sprintf("shedding %s traffic under load; retry later", cls)
		case rejected:
			status = http.StatusTooManyRequests
			msg = fmt.Sprintf("queue for %q is full (depth %d); retry later", r.q.name, s.cfg.QueueDepth)
		}
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, status, errorResponse{Error: msg})
		return
	}
	s.series.model(r.q.name).Depth.Observe(at, float64(depth))

	select {
	case err := <-r.done:
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		o := r.out
		done := s.now().Duration()
		s.series.recordServed(s.series.model(o.Model), &o, done)
		s.series.recordBurn(&o, done)
		queue := o.Started.Sub(o.Arrival)
		writeJSON(w, http.StatusOK, inferResponse{
			Model:     o.Model,
			Batch:     o.BatchSize,
			QueueMS:   ms(queue),
			ServiceMS: ms(o.Finished.Sub(o.Started)),
			InferMS:   ms(o.Stages.Stage[taxcore.StageInference]),
			TaxMS:     ms(queue + o.ComputeTax),
			ServedBy:  o.ServedAs,
		})
	case <-req.Context().Done():
		// Deadline propagation: if the request is still queued, pull it
		// out before dispatch — it counts as cancelled, not served. If it
		// already flushed, the buffered channel lets the batch finish
		// without leaking the executor goroutine.
		s.mu.Lock()
		removed := s.core.cancel(r)
		s.mu.Unlock()
		if removed {
			now := s.now().Duration()
			s.series.model(m.Name).Cancelled.Add(now, 1)
			s.series.all.Cancelled.Add(now, 1)
		}
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "client cancelled"})
	}
}

// run prices one dispatched batch from the server's cost table as a
// lab job (measuring it on the table's first miss), then completes it
// in the core and wakes its riders.
func (s *Server) run(b *batch) {
	m, _ := s.cfg.modelByName(b.q.name)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		res := s.lab.Run(context.Background(), []lab.Job{{ID: m.Name, Run: func(ctx context.Context) (any, error) {
			return s.table.entry(ctx, s.cfg, m, len(b.reqs), b.steered)
		}}})[0]
		cost, _ := res.Value.(BatchCost)
		s.mu.Lock()
		s.core.complete(b, cost, res.Err)
		s.mu.Unlock()
		if res.Err == nil {
			s.metrics.Observe(b.q.series.service, ms(s.core.service(b, cost)))
		}
		for _, r := range b.reqs {
			r.done <- res.Err
		}
	}()
}

// handleModels lists the loaded models and their endpoints.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Model    string `json:"model"`
		Task     string `json:"task"`
		Endpoint string `json:"endpoint"`
	}
	out := make([]entry, 0, len(s.cfg.Models))
	for _, m := range s.cfg.Models {
		e := entry{Model: m.Name, Task: string(m.Task)}
		for _, ep := range endpointTask {
			if ep.task == m.Task {
				e.Endpoint = ep.path
			}
		}
		out = append(out, e)
	}
	writeJSON(w, http.StatusOK, out)
}
