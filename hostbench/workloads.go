package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"aitax"
	"aitax/internal/app"
	"aitax/internal/fleet"
	"aitax/internal/lab"
	"aitax/internal/loadgen"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/plan"
	"aitax/internal/serve"
	"aitax/internal/soc"
	"aitax/internal/tflite"
)

// Params are a workload's inputs besides the seed. Full size is what the
// benchmark measures; tiny size is for the smoke test.
type Params struct {
	Runs         int    `json:"runs,omitempty"`          // sweep: iterations per configuration
	Ramp         string `json:"ramp,omitempty"`          // serve-sim: open-loop QPS ramp
	SLO          string `json:"slo,omitempty"`           // serve-sim: objectives the brownout ladder burns against
	Requests     int    `json:"requests,omitempty"`      // http: requests per repetition
	SetupDevices int    `json:"setup_devices,omitempty"` // fleet: cold run inside set-up
	Devices      int    `json:"devices,omitempty"`       // fleet: warm timed run
	Parallel     int    `json:"parallel"`                // lab workers and client connections (nproc)
}

// Workload is one set of inputs the benchmark runs.
type Workload struct {
	Name string
	// Metric is the issue's name for the end-to-end figure run_s stands
	// for on this workload, and Rate converts ops per second into it.
	Metric string
	Unit   string
	Rate   bool
	Params func(tiny bool, nproc int) Params
	Run    func(rc *Rep) (*RepResult, error)
}

var workloads = []Workload{
	{Name: "sweep", Metric: "sweep_s", Unit: "s", Run: runSweep,
		Params: func(tiny bool, nproc int) Params {
			p := Params{Runs: 500, Parallel: nproc}
			if tiny {
				p.Runs = 24 // aitax-validate's default, enough for every shape check
			}
			return p
		}},
	{Name: "serve-sim", Metric: "sim_req_per_s", Unit: "1/s", Rate: true, Run: runServeSim,
		Params: func(tiny bool, nproc int) Params {
			// Below (20), near (36) and above (60 QPS) the two executors'
			// capacity of about 38 QPS, so batching, rejections, SLO burn
			// and ladder transitions all occur: 44k arrivals.
			p := Params{Ramp: "20x600s,36x500s,60x240s", SLO: "all=150ms@90", Parallel: nproc}
			if tiny {
				p.Ramp = "20x2s,60x2s"
			}
			return p
		}},
	{Name: "http", Metric: "http_rps", Unit: "1/s", Rate: true, Run: runHTTP,
		Params: func(tiny bool, nproc int) Params {
			p := Params{Requests: 300, Parallel: nproc}
			if tiny {
				p.Requests = 12
			}
			return p
		}},
	{Name: "fleet", Metric: "fleet_devices_per_s", Unit: "1/s", Rate: true, Run: runFleet,
		Params: func(tiny bool, nproc int) Params {
			p := Params{SetupDevices: 10000, Devices: 2000000, Parallel: nproc}
			if tiny {
				p.SetupDevices, p.Devices = 200, 2000
			}
			return p
		}},
}

func workloadByName(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// Rep is one repetition, run in a fresh child process so that every
// process-wide cache (plan.Shared, the par pool, kernel coefficient
// caches) starts cold, as in a user's invocation.
type Rep struct {
	Seed   uint64
	Params Params
	Tr     *Tracer // nil on untraced repetitions
	// T0 is when the parent started this process; set-up runs from T0 to
	// the start of the timed phase.
	T0    time.Time
	setup time.Duration
	start time.Time
	run   time.Duration
}

// startTimed ends set-up. It first collects set-up's garbage, so the
// timed phase does not pay for collections that set-up's heap triggers.
func (rc *Rep) startTimed() {
	runtime.GC()
	rc.start = time.Now()
	rc.setup = rc.start.Sub(rc.T0)
}

func (rc *Rep) endTimed() { rc.run = time.Since(rc.start) }

// RepResult is what a child reports to the parent.
type RepResult struct {
	SetupNS int64 `json:"setup_ns"`
	RunNS   int64 `json:"run_ns"`
	// Ops is the work the timed phase completed: experiments, arrivals,
	// requests or devices.
	Ops       int    `json:"ops"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Digest    string `json:"digest"`
	// LatMS are per-request client latencies (http only).
	LatMS    []float64          `json:"lat_ms,omitempty"`
	Layer    map[string]float64 `json:"layer"`
	Spans    []Span             `json:"spans,omitempty"`
	Problems []string           `json:"problems,omitempty"`
}

func newResult() *RepResult { return &RepResult{Layer: make(map[string]float64)} }

func (r *RepResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Problems) < 10 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// planStats records the process-wide plan cache counters (plus any
// private cache the workload used) as per-layer metrics.
func planStats(r *RepResult, extra ...*plan.Cache) {
	for _, c := range append([]*plan.Cache{plan.Shared}, extra...) {
		hits, misses, _ := c.Stats()
		r.Layer["plan.hits"] += float64(hits)
		r.Layer["plan.misses"] += float64(misses)
		r.Layer["plan.compile_ms"] += msOf(c.CompileTime())
	}
}

// runSweep is the paper reproduction at paper scale: every experiment,
// Runs 500, Pixel 3, lab parallelism nproc.
func runSweep(rc *Rep) (*RepResult, error) {
	res := newResult()
	cfg := aitax.ExperimentConfig{Platform: aitax.Pixel3(), Seed: rc.Seed, SeedSet: true, Runs: rc.Params.Runs}
	exps := aitax.Experiments()
	rc.startTimed()
	root := rc.Tr.Start(-1, "lab", "Lab.Run")
	jobs := make([]aitax.Job, len(exps))
	for i, e := range exps {
		e := e
		jobs[i] = aitax.Job{ID: e.ID, Run: func(ctx context.Context) (any, error) {
			sp := rc.Tr.Start(root, "bench", e.ID)
			defer rc.Tr.End(sp)
			return e.RunCtx(ctx, cfg)
		}}
	}
	l := &aitax.Lab{Parallelism: rc.Params.Parallel}
	results := l.Run(context.Background(), jobs)
	rc.Tr.End(root)
	rc.endTimed()

	// The aitax-validate rule: every experiment succeeds and no shape
	// check fails.
	var out bytes.Buffer
	for _, r := range results {
		res.Attempted++
		res.Layer["lab.wall_ms."+r.ID] = msOf(r.Wall)
		if r.Err != nil {
			res.fail("%s: %v", r.ID, r.Err)
			continue
		}
		er := r.Value.(*aitax.ExperimentResult)
		out.WriteString(er.Render())
		for _, n := range er.Notes {
			if strings.Contains(n, "FAIL") || strings.Contains(n, "setup failed") {
				res.fail("%s: %s", r.ID, n)
				break
			}
		}
	}
	res.Ops = len(exps)
	res.Digest = digest(out.Bytes())
	planStats(res)
	return res, nil
}

// serveConfig is aitax-serve's default configuration (its flag defaults).
func serveConfig(seed uint64) (serve.Config, error) {
	cfg := serve.Config{
		Platform: aitax.Pixel3(), DType: aitax.Float32, Delegate: tflite.DelegateNNAPI,
		Entry: app.StagePre, Workers: 2, BatchWindow: 2 * time.Millisecond, MaxBatch: 4,
		QueueDepth: 16, DispatchCost: 200 * time.Microsecond, Seed: seed,
	}
	cfg = cfg.Defaults()
	return cfg, cfg.Validate()
}

// runServeSim is aitax-serve -loadgen -slo … -qos on: the timed phase is
// Simulate → BuildSimObs → Report on a pre-built cost table.
func runServeSim(rc *Rep) (*RepResult, error) {
	res := newResult()
	cfg, err := serveConfig(rc.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.SLO, err = obs.ParseObjectives(rc.Params.SLO); err != nil {
		return nil, err
	}
	cfg.QoS = &serve.QoSPolicy{SteerDelegate: tflite.DelegateGPU}
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	phases, err := loadgen.ParseRamp(rc.Params.Ramp)
	if err != nil {
		return nil, err
	}
	spec := loadgen.Spec{Seed: rc.Seed, Phases: phases}
	for _, m := range cfg.Models {
		spec.Mix = append(spec.Mix, loadgen.Share{Model: m.Name, Weight: 1})
	}

	t := time.Now()
	sp := rc.Tr.Start(-1, "loadgen", "Spec.Generate")
	arrivals, err := spec.Generate()
	rc.Tr.End(sp)
	res.Layer["loadgen.generate_ms"] = msOf(time.Since(t))
	if err != nil {
		return nil, err
	}
	t = time.Now()
	sp = rc.Tr.Start(-1, "serve", "BuildCostTable")
	table, err := serve.BuildCostTable(context.Background(), cfg, rc.Params.Parallel, func(r lab.JobResult) {
		rc.Tr.Add(sp, "serve.measure_batch", r.ID, r.Wall)
	})
	rc.Tr.End(sp)
	res.Layer["serve.cost_table_ms"] = msOf(time.Since(t))
	if err != nil {
		return nil, err
	}

	rc.startTimed()
	t = time.Now()
	sp = rc.Tr.Start(-1, "serve", "Simulate")
	sr, err := serve.Simulate(cfg, table, arrivals, false)
	rc.Tr.End(sp)
	res.Layer["serve.simulate_ms"] = msOf(time.Since(t))
	if err != nil {
		return nil, err
	}
	t = time.Now()
	sp = rc.Tr.Start(-1, "obs", "BuildSimObs")
	so := serve.BuildSimObs(cfg, sr, cfg.ObsWindow, cfg.SLO)
	rc.Tr.End(sp)
	res.Layer["obs.build_sim_obs_ms"] = msOf(time.Since(t))
	t = time.Now()
	sp = rc.Tr.Start(-1, "serve", "SimResult.Report")
	var out strings.Builder
	out.WriteString(sr.Report(cfg, rc.Params.Ramp))
	so.Monitor.WriteReport(&out)
	rc.Tr.End(sp)
	res.Layer["serve.report_ms"] = msOf(time.Since(t))
	rc.endTimed()

	// Requests are conserved: every arrival is served, rejected or shed
	// (the simulator has no cancellations), and a served one passed its
	// milestones in order.
	var served, rejected, shed, batched int
	res.Attempted = len(arrivals)
	if len(sr.Outcomes) != len(arrivals) {
		res.fail("%d outcomes for %d arrivals", len(sr.Outcomes), len(arrivals))
	}
	for _, o := range sr.Outcomes {
		switch {
		case o.Rejected && !o.Shed:
			rejected++
		case o.Shed && !o.Rejected:
			shed++
		case !o.Rejected && !o.Shed && o.BatchSize >= 1 && o.Arrival <= o.Flushed &&
			o.Flushed <= o.Started && o.Started < o.Finished:
			served++
		default:
			res.fail("request %d is neither served, rejected nor shed", o.ID)
		}
	}
	for _, b := range sr.Batches {
		batched += b.Batches
	}
	res.Ops = len(arrivals)
	res.Digest = digest([]byte(out.String()))
	res.Layer["loadgen.arrivals"] = float64(len(arrivals))
	res.Layer["obs.windows"] = float64(len(so.Rows))
	if sr.Degradation != nil {
		res.Layer["qos.transitions"] = float64(len(sr.Degradation.Transitions))
	}
	res.Layer["serve.offered"] = float64(len(arrivals))
	res.Layer["serve.served"] = float64(served)
	res.Layer["serve.rejected"] = float64(rejected)
	res.Layer["serve.shed"] = float64(shed)
	if batched > 0 {
		res.Layer["serve.batch_size_mean"] = float64(served) / float64(batched)
	}
	planStats(res)
	return res, nil
}

// endpointFor maps a model's task to its inference endpoint.
func endpointFor(m *models.Model) string {
	switch m.Task {
	case models.ObjectDetection:
		return "/v1/detect"
	case models.Segmentation:
		return "/v1/segment"
	}
	return "/v1/classify"
}

type inferReply struct {
	Model     string  `json:"model"`
	Batch     int     `json:"batch_size"`
	QueueMS   float64 `json:"queue_ms"`
	ServiceMS float64 `json:"service_ms"`
	InferMS   float64 `json:"infer_ms"`
}

// post sends one inference request and decodes the reply.
func post(client *http.Client, base string, m *models.Model) (int, inferReply, error) {
	body := fmt.Sprintf(`{"model":%q}`, m.Name)
	resp, err := client.Post(base+endpointFor(m), "application/json", strings.NewReader(body))
	if err != nil {
		return 0, inferReply{}, err
	}
	defer resp.Body.Close()
	var rep inferReply
	if resp.StatusCode == http.StatusOK {
		err = json.NewDecoder(resp.Body).Decode(&rep)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, rep, err
}

// runHTTP is aitax-serve's wall-clock frontend behind a loopback server:
// nproc closed-loop client connections, since each caller waits for its
// reply.
func runHTTP(rc *Rep) (*RepResult, error) {
	res := newResult()
	cfg, err := serveConfig(rc.Seed)
	if err != nil {
		return nil, err
	}
	s, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if _, err := s.Prewarm(context.Background()); err != nil {
		return nil, err
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	conns := rc.Params.Parallel
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns},
		Timeout:   30 * time.Second,
	}
	defer client.CloseIdleConnections()

	n := rc.Params.Requests
	// Every model gets the same share of requests; the seed orders them.
	asks := make([]*models.Model, n)
	for i := range asks {
		asks[i] = cfg.Models[i%len(cfg.Models)]
	}
	rng := rand.New(rand.NewPCG(rc.Seed, 0x68747470))
	rng.Shuffle(n, func(i, j int) { asks[i], asks[j] = asks[j], asks[i] })
	lat := make([]float64, n)
	status := make([]int, n)
	replies := make([]inferReply, n)
	errs := make([]error, n)

	rc.startTimed()
	root := rc.Tr.Start(-1, "http", "closed-loop")
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < n; i += conns {
				sp := rc.Tr.Start(root, "client", "POST "+endpointFor(asks[i]))
				t := time.Now()
				status[i], replies[i], errs[i] = post(client, ts.URL, asks[i])
				lat[i] = msOf(time.Since(t))
				rc.Tr.End(sp)
			}
		}(c)
	}
	wg.Wait()
	rc.Tr.End(root)
	rc.endTimed()

	var served, rejected, shed, batchSum int
	var queue []float64
	for i := range asks {
		res.Attempted++
		switch {
		case errs[i] != nil:
			res.fail("request %d: %v", i, errs[i])
		case status[i] != http.StatusOK:
			res.fail("request %d: HTTP %d", i, status[i])
			if status[i] == http.StatusTooManyRequests {
				rejected++
			} else if status[i] == http.StatusServiceUnavailable {
				shed++
			}
		case replies[i].Model != asks[i].Name:
			res.fail("request %d asked for %q, reply names %q", i, asks[i].Name, replies[i].Model)
		default:
			served++
			batchSum += replies[i].Batch
			queue = append(queue, replies[i].QueueMS)
		}
	}
	res.Ops = n
	res.LatMS = lat

	// The digest covers what the simulation decides: a lone request per
	// model (always a batch of one) and the model listing. Timed-phase
	// batch sizes depend on host timing, so they stay out of it.
	var out bytes.Buffer
	for _, m := range cfg.Models {
		code, r, err := post(client, ts.URL, m)
		if err != nil || code != http.StatusOK || r.Batch != 1 {
			return nil, fmt.Errorf("digest request for %s: HTTP %d, batch %d, %v", m.Name, code, r.Batch, err)
		}
		fmt.Fprintf(&out, "%s batch=%d service_ms=%.6f infer_ms=%.6f\n", r.Model, r.Batch, r.ServiceMS, r.InferMS)
	}
	resp, err := client.Get(ts.URL + "/v1/models")
	if err != nil {
		return nil, err
	}
	_, err = io.Copy(&out, resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	res.Digest = digest(out.Bytes())

	res.Layer["serve.offered"] = float64(n)
	res.Layer["serve.served"] = float64(served)
	res.Layer["serve.rejected"] = float64(rejected)
	res.Layer["serve.shed"] = float64(shed)
	if served > 0 {
		res.Layer["serve.batch_size_mean"] = float64(batchSum) / float64(served)
		sort.Float64s(queue)
		res.Layer["serve.queue_wait_ms"] = queue[len(queue)/2]
	}
	planStats(res)
	return res, nil
}

// fleetModels is aitax-fleet's default application mix.
var fleetModels = []string{"MobileNet 1.0 v1", "SSD MobileNet v2", "EfficientNet-Lite0"}

// runFleet is aitax-fleet: a cold default-size run is set-up, the timed
// phase is a large run on the now warm anatomy cache.
func runFleet(rc *Rep) (*RepResult, error) {
	res := newResult()
	var mix []*models.Model
	for _, name := range fleetModels {
		m, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		mix = append(mix, m)
	}
	plans := plan.New()
	cfg := fleet.Config{
		Catalog: soc.DefaultCatalog(), Devices: rc.Params.SetupDevices, Models: mix,
		DType: aitax.UInt8, Delegate: tflite.DelegateNNAPI, Seed: rc.Seed,
		Parallel: rc.Params.Parallel, Plans: plans,
	}
	check := func(r *fleet.Result, want int) {
		res.Attempted++
		if got := r.Merged.All().Devices; got != int64(want) {
			res.fail("fleet merged %d devices, want %d", got, want)
		}
	}
	t := time.Now()
	sp := rc.Tr.Start(-1, "fleet", "Run cold")
	cold, err := fleet.Run(context.Background(), cfg)
	rc.Tr.End(sp)
	res.Layer["fleet.cold_run_ms"] = msOf(time.Since(t))
	if err != nil {
		return nil, err
	}
	check(cold, cfg.Devices)

	cfg.Devices = rc.Params.Devices
	rc.startTimed()
	sp = rc.Tr.Start(-1, "fleet", "Run warm")
	if rc.Tr != nil {
		cfg.OnProgress = func(r lab.JobResult) { rc.Tr.Add(sp, "fleet.shard", r.ID, r.Wall) }
	}
	warm, err := fleet.Run(context.Background(), cfg)
	rc.Tr.End(sp)
	rc.endTimed()
	if err != nil {
		return nil, err
	}
	check(warm, cfg.Devices)
	var out bytes.Buffer
	if err := fleet.WriteReport(&out, warm); err != nil {
		return nil, err
	}
	res.Ops = cfg.Devices
	res.Digest = digest(out.Bytes())
	planStats(res, plans)
	return res, nil
}
