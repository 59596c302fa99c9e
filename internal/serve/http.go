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

	"aitax/internal/lab"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
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

// Server is the wall-clock HTTP frontend: the same admission /
// micro-batching policy as the virtual-time simulator, but driven by
// real requests on real time. Batches execute as lab jobs on simulated
// executor stacks (compiled plans shared process-wide via plan.Shared),
// bounded by Config.Workers.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	metrics *telemetry.Registry
	lab     *lab.Lab
	sem     chan struct{}
	// retryAfter is the 429 Retry-After value in whole seconds, derived
	// from the batch window (a client retrying sooner than the window
	// cannot be admitted any faster).
	retryAfter string
	// start anchors the streaming recorder's wall-clock time axis.
	start time.Time
	rec   *obs.Recorder
	mon   *obs.Monitor

	mu     sync.Mutex
	queues map[string]*httpQueue
	closed bool
	wg     sync.WaitGroup
	// qs is the brownout state (nil without a QoS policy), guarded by
	// mu like the queues it gates; hot counts executing batches on the
	// configured (heat-producing) delegate for the thermal tick's
	// utilization sample.
	qs       *qosState
	hot      int
	qosStop  chan struct{}
	qosDone  chan struct{}
	stopOnce sync.Once
}

type httpQueue struct {
	model   *models.Model
	pending []*httpReq
	timer   *time.Timer
	// queued counts admitted requests not yet in service.
	queued int
}

type httpReq struct {
	enq time.Time
	ch  chan httpDone
}

type httpDone struct {
	batch int
	wait  time.Duration
	cost  BatchCost
	err   error
}

// NewServer validates the config and builds the frontend. The cost of
// each batch is measured live when the batch executes, so no warmup
// pass is needed; the first batch per (model, size) pays the plan
// compilation that later ones reuse from the shared cache.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		// A long-running server takes unbounded traffic: the streaming
		// registry keeps /metrics memory flat (bucketed quantiles
		// instead of retained samples).
		metrics:    telemetry.NewStreamingRegistry(),
		lab:        &lab.Lab{Parallelism: 1},
		sem:        make(chan struct{}, cfg.Workers),
		retryAfter: retryAfterSeconds(cfg.BatchWindow),
		start:      time.Now(),
		queues:     make(map[string]*httpQueue, len(cfg.Models)),
	}
	s.rec = obs.NewRecorder(obs.RecorderConfig{
		Window: cfg.ObsWindow,
		OnClose: func(row obs.Row) {
			if s.mon != nil {
				s.mon.OnRow(row)
			}
		},
	})
	if len(cfg.SLO) > 0 {
		s.mon = obs.NewMonitor(cfg.SLO, s.rec.Window())
	}
	for _, m := range cfg.Models {
		s.queues[m.Name] = &httpQueue{model: m}
	}
	if cfg.QoS != nil {
		qs, err := newQOSState(cfg)
		if err != nil {
			return nil, err
		}
		s.qs = qs
		s.qosStop = make(chan struct{})
		s.qosDone = make(chan struct{})
		go s.qosLoop()
	}
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
	secs := int(math.Ceil(window.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// now is the server's position on the recorder's time axis.
func (s *Server) now() time.Duration { return time.Since(s.start) }

// Watch renders the live terminal dashboard from the server's streaming
// recorder (the -watch flag's refresh body).
func (s *Server) Watch() string {
	models := make([]string, 0, len(s.cfg.Models))
	for _, m := range s.cfg.Models {
		models = append(models, m.Name)
	}
	d := &obs.Dashboard{Rec: s.rec, Mon: s.mon, Models: models}
	return d.Render(s.now().Round(time.Millisecond))
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

// qosLoop drives the brownout controller on the wall clock: every tick
// it samples executor utilization and queue occupancy, advances the
// thermal model, and runs one ladder decision under the server mutex.
func (s *Server) qosLoop() {
	defer close(s.qosDone)
	t := time.NewTicker(s.qs.ctl.Ladder().Tick)
	defer t.Stop()
	last := s.now()
	for {
		select {
		case <-s.qosStop:
			return
		case <-t.C:
			now := s.now()
			dt := now - last
			last = now
			faultTrip := s.cfg.Faults.ThermalTripAt > 0 && now >= s.cfg.Faults.ThermalTripAt
			s.mu.Lock()
			util := float64(s.hot) / float64(s.cfg.Workers)
			frac := 0.0
			for _, q := range s.queues {
				if f := float64(q.queued) / float64(s.cfg.QueueDepth); f > frac {
					frac = f
				}
			}
			tk := s.qs.step(now, dt, util, frac, faultTrip)
			temp := s.qs.therm.TempC()
			s.mu.Unlock()
			s.metrics.Set("aitax_qos_level", float64(tk.Level))
			s.metrics.Set("aitax_qos_temp_c", temp)
			if tk.Changed {
				s.metrics.Inc("aitax_qos_transitions_total")
				s.rec.Add(now, telemetry.Labeled("qos_transitions", "to", strconv.Itoa(tk.Level)), 1)
			}
		}
	}
}

// Close stops admitting requests and waits for in-flight batches.
func (s *Server) Close() { s.Shutdown(context.Background()) }

// Shutdown drains the server gracefully: admission immediately starts
// answering 503 with a Retry-After, every open micro-batch window is
// flushed so queued requests still get served, and in-flight batches
// have until ctx's deadline to complete. It returns ctx.Err() if the
// drain deadline expires first (batches then finish in the background).
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	for _, q := range s.queues {
		if q.timer != nil {
			q.timer.Stop()
			q.timer = nil
		}
		s.flushLocked(q)
	}
	s.mu.Unlock()
	s.stopOnce.Do(func() {
		if s.qosStop != nil {
			close(s.qosStop)
		}
	})
	if s.qosDone != nil {
		<-s.qosDone
	}
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
		if errors.Is(err, models.ErrUnknownModel) {
			return nil, http.StatusNotFound, err
		}
		return nil, http.StatusInternalServerError, err
	}
	if _, ok := s.cfg.modelByName(m.Name); !ok {
		return nil, http.StatusNotFound, fmt.Errorf("model %q is not loaded (see /v1/models)", m.Name)
	}
	if m.Task != task {
		return nil, http.StatusBadRequest, fmt.Errorf("model %q is a %s model, not %s", m.Name, m.Task, task)
	}
	return m, 0, nil
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request, task models.Task) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req inferRequest
	if r.Body != nil {
		body := http.MaxBytesReader(w, r.Body, maxInferBody)
		if err := json.NewDecoder(body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			status := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				status = http.StatusRequestEntityTooLarge
			}
			writeJSON(w, status, errorResponse{Error: "bad request body: " + err.Error()})
			return
		}
	}
	m, status, err := s.resolveModel(req.Model, task)
	if err != nil {
		writeJSON(w, status, errorResponse{Error: err.Error()})
		return
	}
	cls, err := qos.ParseClass(req.Class)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	s.metrics.Inc(telemetry.Labeled("aitax_serve_requests_total", "model", m.Name))
	arrival := s.now()
	s.rec.Add(arrival, obs.OfferedSeries(m.Name), 1)
	s.rec.Add(arrival, obs.OfferedSeries(obs.AllModels), 1)

	hr := &httpReq{enq: time.Now(), ch: make(chan httpDone, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		// Draining: tell clients when to come back, not just to go away.
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "server shutting down"})
		return
	}
	// Brownout rung 1: shed best-effort traffic at admission. The shed
	// outcome is not fed into the controller's burn signal.
	if s.qs != nil && s.qs.ctl.Shed(cls) {
		s.qs.deg.Shed[cls]++
		s.mu.Unlock()
		s.metrics.Inc(telemetry.Labeled("aitax_qos_shed_total", "class", cls.String()))
		s.rec.Add(arrival, obs.ShedSeries(m.Name), 1)
		s.rec.Add(arrival, obs.ShedSeries(obs.AllModels), 1)
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{
			Error: fmt.Sprintf("shedding %s traffic under load; retry later", cls),
		})
		return
	}
	// Brownout rung 2: serve the request with its cheaper fallback.
	served := m
	if s.qs != nil && s.qs.ctl.Downshift() {
		if to, ok := s.cfg.QoS.Downshift[m.Name]; ok {
			if tm, loaded := s.cfg.modelByName(to); loaded {
				served = tm
				s.qs.deg.Downshifted++
				s.metrics.Inc(telemetry.Labeled("aitax_qos_downshift_total", "model", m.Name))
			}
		}
	}
	q := s.queues[served.Name]
	if q.queued >= s.cfg.QueueDepth {
		s.mu.Unlock()
		s.metrics.Inc(telemetry.Labeled("aitax_serve_rejected_total", "model", m.Name))
		s.rec.Add(arrival, obs.RejectedSeries(m.Name), 1)
		s.rec.Add(arrival, obs.RejectedSeries(obs.AllModels), 1)
		for _, obj := range s.cfg.SLO {
			if covered, _ := obj.Match(m.Name, 0, true); covered {
				s.rec.Add(arrival, obs.BadSeries(obj), 1)
			}
		}
		if s.qs != nil {
			for _, obj := range s.cfg.SLO {
				if covered, _ := obj.Match(m.Name, 0, true); covered {
					s.mu.Lock()
					s.qs.ctl.ObserveBad()
					s.mu.Unlock()
					break
				}
			}
		}
		w.Header().Set("Retry-After", s.retryAfter)
		writeJSON(w, http.StatusTooManyRequests, errorResponse{
			Error: fmt.Sprintf("queue for %q is full (depth %d); retry later", served.Name, s.cfg.QueueDepth),
		})
		return
	}
	q.queued++
	s.rec.Observe(arrival, obs.DepthSeries(served.Name), float64(q.queued))
	q.pending = append(q.pending, hr)
	switch {
	case len(q.pending) >= s.cfg.MaxBatch:
		if q.timer != nil {
			q.timer.Stop()
			q.timer = nil
		}
		s.flushLocked(q)
	case s.cfg.BatchWindow == 0:
		s.flushLocked(q)
	case len(q.pending) == 1:
		q.timer = time.AfterFunc(s.cfg.BatchWindow, func() {
			s.mu.Lock()
			q.timer = nil
			s.flushLocked(q)
			s.mu.Unlock()
		})
	}
	s.mu.Unlock()

	select {
	case done := <-hr.ch:
		if done.err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: done.err.Error()})
			return
		}
		s.recordServed(m.Name, done)
		k := time.Duration(done.batch)
		resp := inferResponse{
			Model:     m.Name,
			Batch:     done.batch,
			QueueMS:   ms(done.wait),
			ServiceMS: ms(s.cfg.DispatchCost + done.cost.Service),
			InferMS:   ms(done.cost.Infer / k),
			TaxMS:     ms(done.wait + (done.cost.Tax+s.cfg.DispatchCost)/k),
		}
		if served != m {
			resp.ServedBy = served.Name
		}
		writeJSON(w, http.StatusOK, resp)
	case <-r.Context().Done():
		// Deadline propagation: if the request is still queued, pull it
		// out before dispatch so the batch never pays for a client that
		// left — it counts as cancelled, not served. If it already
		// flushed, the buffered channel lets the batch finish without
		// leaking the executor goroutine.
		s.mu.Lock()
		removed := false
		for i, p := range q.pending {
			if p == hr {
				q.pending = append(q.pending[:i], q.pending[i+1:]...)
				q.queued--
				removed = true
				break
			}
		}
		if removed && len(q.pending) == 0 && q.timer != nil {
			q.timer.Stop()
			q.timer = nil
		}
		s.mu.Unlock()
		if removed {
			at := s.now()
			s.metrics.Inc(telemetry.Labeled("aitax_serve_cancelled_total", "model", m.Name))
			s.rec.Add(at, obs.CancelledSeries(m.Name), 1)
			s.rec.Add(at, obs.CancelledSeries(obs.AllModels), 1)
		}
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "client cancelled"})
	}
}

// flushLocked closes q's open batch and schedules its execution. The
// caller holds s.mu.
func (s *Server) flushLocked(q *httpQueue) {
	if len(q.pending) == 0 {
		return
	}
	batch := q.pending
	q.pending = nil
	s.metrics.Inc(telemetry.Labeled("aitax_serve_batches_total", "model", q.model.Name))
	s.metrics.Observe(telemetry.Labeled("aitax_serve_batch_size", "model", q.model.Name), float64(len(batch)))
	s.wg.Add(1)
	go s.execute(q, batch)
}

// execute runs one batch on an executor slot: a lab job measuring the
// batch on a fresh simulated stack (plans cached process-wide).
func (s *Server) execute(q *httpQueue, batch []*httpReq) {
	defer s.wg.Done()
	s.sem <- struct{}{}
	defer func() { <-s.sem }()

	start := time.Now()
	// Brownout rung 3 and DVFS: decide steering and sample the throttle
	// at pickup, under the same mutex the controller ticks under.
	cfg := s.cfg
	steered := false
	factor := 1.0
	s.mu.Lock()
	q.queued -= len(batch)
	if s.qs != nil {
		if s.qs.ctl.Steer() {
			steered = true
			cfg.Delegate = s.cfg.QoS.SteerDelegate
			s.qs.deg.SteeredBatches++
		} else {
			factor = s.qs.therm.ThrottleFactor()
			if factor < 1 {
				s.qs.deg.ThrottledBatches++
			}
			s.hot++
		}
	}
	s.mu.Unlock()
	if steered {
		s.metrics.Inc("aitax_qos_steered_batches_total")
	} else if factor < 1 {
		s.metrics.Inc("aitax_qos_throttled_batches_total")
	}

	k := len(batch)
	results := s.lab.Run(context.Background(), []lab.Job{{
		ID: fmt.Sprintf("%s/b%d", q.model.Name, k),
		Run: func(ctx context.Context) (any, error) {
			return MeasureBatch(ctx, cfg, q.model, k)
		},
	}})
	if !steered && s.qs != nil {
		s.mu.Lock()
		s.hot--
		s.mu.Unlock()
	}
	res := results[0]
	var cost BatchCost
	if res.Err == nil {
		cost = res.Value.(BatchCost)
		if factor < 1 {
			// The hot die runs the batch slower; the stretch is thermal
			// tax every rider's latency carries.
			cost.Service = time.Duration(float64(cost.Service) / factor)
		}
		s.metrics.Observe(telemetry.Labeled("aitax_serve_service_ms", "model", q.model.Name),
			ms(s.cfg.DispatchCost+cost.Service))
	}
	for _, hr := range batch {
		hr.ch <- httpDone{batch: k, wait: start.Sub(hr.enq), cost: cost, err: res.Err}
	}
}

// recordServed feeds one completed request into the streaming recorder
// under the shared series-name contract, and scores it against the
// configured SLOs. Latency is the client's composite view: wall-clock
// queueing on this host plus the batch's virtual execution on the
// simulated SoC.
func (s *Server) recordServed(model string, done httpDone) {
	at := s.now()
	k := time.Duration(done.batch)
	lat := done.wait + s.cfg.DispatchCost + done.cost.Service
	o := Outcome{
		Model:     model,
		BatchSize: done.batch,
		Infer:     done.cost.Infer / k,
		Pre:       done.cost.Pre / k,
		Post:      done.cost.Post / k,
		RPC:       done.cost.RPC / k,
		Exec:      done.cost.Exec / k,
	}
	latMS := ms(lat)
	for _, m := range []string{model, obs.AllModels} {
		s.rec.Add(at, obs.ServedSeries(m), 1)
		s.rec.Observe(at, obs.LatencySeries(m), latMS)
		s.rec.Observe(at, obs.BatchSeries(m), float64(done.batch))
		s.rec.Observe(at, obs.BatchWaitSeries(m), ms(done.wait))
	}
	s.rec.Add(at, obs.StageSeries("pre"), ms(o.Pre))
	s.rec.Add(at, obs.StageSeries("framework"), ms(o.Framework()))
	s.rec.Add(at, obs.StageSeries("rpc"), ms(o.RPC))
	s.rec.Add(at, obs.StageSeries("infer"), ms(o.KernelExec()))
	s.rec.Add(at, obs.StageSeries("post"), ms(o.Post))
	anyCovered, anyBreached := false, false
	for _, obj := range s.cfg.SLO {
		covered, breached := obj.Match(model, lat, false)
		if !covered {
			continue
		}
		anyCovered = true
		if breached {
			anyBreached = true
			s.rec.Add(at, obs.BadSeries(obj), 1)
		} else {
			s.rec.Add(at, obs.GoodSeries(obj), 1)
		}
	}
	if s.qs != nil && anyCovered {
		s.mu.Lock()
		if anyBreached {
			s.qs.ctl.ObserveBad()
		} else {
			s.qs.ctl.ObserveGood()
		}
		s.mu.Unlock()
	}
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
