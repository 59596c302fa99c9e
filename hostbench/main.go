// Command hostbench is the repository's host-time benchmark: the paper's
// end-to-end decomposition applied to the cost of computing and serving
// the simulated numbers. It runs one of four user workloads (see
// README.md), checks the simulated output, and prints every metric with
// its unit; the last line of standard output is one JSON object.
//
//	bash hostbench/run.sh --workload sweep --seed 1 --seconds 25 --trace 0
//
// Each repetition runs in a fresh child process, so process-wide caches
// start cold as in a user's invocation. --trace 0 reports the end-to-end
// metrics; --trace 1 adds traced repetitions, which record spans around
// the benchmark's calls into each layer, plus single-layer probes, and
// reports the per-layer metrics and the tracing overhead.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// MetricDef names one reported metric and its unit.
type MetricDef struct {
	Name string
	Unit string
}

// EndToEnd are the metrics of a --trace 0 run, on every workload.
// run_s is the workload's timed phase: the whole sweep, the serving
// simulation, a fixed batch of HTTP requests, or the warm fleet run.
var EndToEnd = []MetricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mb", "MB"},
}

// PerLayer are the metrics of a --trace 1 run, on every workload: the
// plan cache as the workload used it, the tracing overhead, and the
// single-layer probes.
var PerLayer = []MetricDef{
	{"trace.overhead_pct", "%"},
	{"plan.hits", "count"},
	{"plan.misses", "count"},
	{"plan.compile_ms", "ms"},
	{"capture.new_camera_ms", "ms"},
	{"app.new_ms", "ms"},
	{"app.init_ms", "ms"},
	{"app.frame_us.cpu", "us"},
	{"app.frame_us.gpu", "us"},
	{"app.frame_us.hexagon", "us"},
	{"app.frame_us.nnapi", "us"},
	{"sim.events_per_frame", "count"},
	{"sim.ns_per_event", "ns"},
	{"sched.switches_per_frame", "count"},
	{"sched.migrations_per_frame", "count"},
	{"fastrpc.calls_per_frame", "count"},
	{"serve.measure_batch_ms.k1", "ms"},
	{"serve.measure_batch_ms.k2", "ms"},
	{"serve.measure_batch_ms.k3", "ms"},
	{"serve.measure_batch_ms.k4", "ms"},
	{"obs.hist_observe_ns", "ns"},
	{"fleet.sample_ns", "ns"},
	{"fleet.fold_ns", "ns"},
	{"qos.tick_ns", "ns"},
	{"http.models_rtt_ms", "ms"},
	{"http.metrics_scrape_ms", "ms"},
}

// repCap bounds the time spent starting repetitions, so a run ends well
// inside three minutes even on a slow host.
const repCap = 120 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	tiny     bool
	out      string
	// Child-process flags, set only by the parent.
	child  string
	traced bool
	t0     int64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload: sweep | serve-sim | http | fleet")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 10, "how long to keep starting repetitions")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced repetitions")
	fs.BoolVar(&o.tiny, "tiny", false, "tiny inputs (smoke test)")
	fs.StringVar(&o.out, "out", ".bench_build/hostbench-spans", "directory the traced run writes its spans to")
	fs.StringVar(&o.child, "child", "", "internal: run one repetition (rep) or the probes (probe)")
	fs.BoolVar(&o.traced, "traced", false, "internal: record spans in this repetition")
	fs.Int64Var(&o.t0, "t0", 0, "internal: unix nanoseconds the parent started this process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		fmt.Fprintf(stderr, "hostbench: unknown workload %q (sweep | serve-sim | http | fleet)\n", o.workload)
		return 2
	}
	if o.trace != 0 && o.trace != 1 {
		fmt.Fprintf(stderr, "hostbench: --trace must be 0 or 1, got %d\n", o.trace)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "hostbench: --seconds must be at least 1, got %d\n", o.seconds)
		return 2
	}
	switch o.child {
	case "":
		return parent(o, w, stdout, stderr)
	case "rep":
		return childRep(o, w, stdout, stderr)
	case "probe":
		return childProbe(o, stdout, stderr)
	}
	fmt.Fprintf(stderr, "hostbench: unknown --child %q\n", o.child)
	return 2
}

func childRep(o options, w Workload, stdout, stderr io.Writer) int {
	rc := &Rep{Seed: o.seed, Params: w.Params(o.tiny, runtime.GOMAXPROCS(0)), T0: time.Unix(0, o.t0)}
	if o.traced {
		rc.Tr = NewTracer()
	}
	res, err := w.Run(rc)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", w.Name, err)
		return 1
	}
	res.SetupNS, res.RunNS, res.Spans = int64(rc.setup), int64(rc.run), rc.Tr.Spans()
	return encode(stdout, stderr, res)
}

func childProbe(o options, stdout, stderr io.Writer) int {
	layer, err := runProbes(o.seed, o.tiny)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: probes: %v\n", err)
		return 1
	}
	return encode(stdout, stderr, &RepResult{Layer: layer})
}

func encode(stdout, stderr io.Writer, res *RepResult) int {
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	return 0
}

// repOut is one finished child: its report and its peak resident set.
type repOut struct {
	*RepResult
	rssKB int64
	cpu   time.Duration // user + system CPU time
}

// spawn runs one child process to completion and decodes its report.
func spawn(exe string, nproc int, o options, mode string, traced bool, stderr io.Writer) (repOut, error) {
	args := []string{"--child", mode, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10)}
	if traced {
		args = append(args, "--traced")
	}
	if o.tiny {
		args = append(args, "--tiny")
	}
	var out bytes.Buffer
	t0 := time.Now()
	cmd := exec.Command(exe, append(args, "--t0", strconv.FormatInt(t0.UnixNano(), 10))...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nproc))
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return repOut{}, fmt.Errorf("%s child for %s: %w", mode, o.workload, err)
	}
	r := repOut{RepResult: &RepResult{}}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssKB = ru.Maxrss
		r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), r.RepResult); err != nil {
		return repOut{}, fmt.Errorf("%s child for %s: bad report: %w", mode, o.workload, err)
	}
	return r, nil
}

func parent(o options, w Workload, stdout, stderr io.Writer) int {
	start := time.Now()
	nproc := runtime.NumCPU()
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	// Untraced repetitions give the end-to-end figures. A traced run
	// alternates traced and untraced repetitions, so the overhead compares
	// neighbours under the same machine conditions.
	minPlain, minTraced := 3, 0
	if o.trace == 1 {
		minPlain, minTraced = 2, 2
	}
	var plain, traced []repOut
	for {
		el := time.Since(start)
		enough := len(plain) >= minPlain && len(traced) >= minTraced
		if enough && el >= time.Duration(o.seconds)*time.Second || el >= repCap && len(plain) > 0 && len(traced) >= min(minTraced, 1) {
			break
		}
		tr := o.trace == 1 && len(traced) < len(plain)
		r, err := spawn(exe, nproc, o, "rep", tr, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "hostbench: %v\n", err)
			return 1
		}
		if tr {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	all := append(append([]repOut{}, plain...), traced...)

	res := result{Correct: true, Metrics: make(map[string]metric)}
	digests := make(map[string]int)
	for _, r := range all {
		res.Attempted += r.Attempted
		res.Failed += r.Failed
		digests[r.Digest]++
		for _, p := range r.Problems {
			fmt.Fprintf(stderr, "hostbench: %s: %s\n", w.Name, p)
		}
	}
	if res.Failed > 0 || len(digests) != 1 || res.Attempted == 0 {
		res.Correct = false
	}

	params := w.Params(o.tiny, nproc)
	m := manifestFor(o, nproc, params)
	mj, err := json.Marshal(m)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "manifest %s\n", mj)
	fmt.Fprintf(stdout, "workload %s: %d untraced + %d traced repetitions, output digest %s\n",
		w.Name, len(plain), len(traced), digestLine(digests))

	setup := pick(plain, func(r repOut) float64 { return float64(r.SetupNS) / 1e9 })
	runS := pick(plain, func(r repOut) float64 { return float64(r.RunNS) / 1e9 })
	rss := pick(plain, func(r repOut) float64 { return float64(r.rssKB) / 1024 })
	named := runS
	if w.Rate {
		named = pick(plain, func(r repOut) float64 { return float64(r.Ops) / (float64(r.RunNS) / 1e9) })
	}
	fmt.Fprintf(stdout, "  %-20s %s\n", "setup_s", describe(setup, "s"))
	fmt.Fprintf(stdout, "  %-20s %s\n", w.Metric, describe(named, w.Unit))
	if w.Name == "http" {
		var lat []float64
		for _, r := range plain {
			lat = append(lat, r.LatMS...)
		}
		sort.Float64s(lat)
		fmt.Fprintf(stdout, "  %-20s %.4f ms (n=%d)\n", "http_p50_ms", quantile(lat, 0.50), len(lat))
		fmt.Fprintf(stdout, "  %-20s %.4f ms (n=%d, %d beyond)\n", "http_p99_ms", quantile(lat, 0.99), len(lat), len(lat)/100)
	}
	fmt.Fprintf(stdout, "  %-20s %s\n", "peak_rss_mb", describe(rss, "MB"))
	fmt.Fprintf(stdout, "  %-20s %s\n", "process_cpu_s", describe(pick(plain, func(r repOut) float64 { return r.cpu.Seconds() }), "s"))
	fmt.Fprintf(stdout, "  %-20s %g (%d of %d operations failed)\n", "error_rate",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted)

	if o.trace == 0 {
		res.set("setup_s", medianOf(setup), "s")
		res.set("run_s", medianOf(runS), "s")
		res.set("peak_rss_mb", medianOf(rss), "MB")
		return res.print(stdout, stderr)
	}

	probe, err := spawn(exe, nproc, o, "probe", false, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	tracedRun := medianOf(pick(traced, func(r repOut) float64 { return float64(r.RunNS) }))
	plainRun := medianOf(pick(plain, func(r repOut) float64 { return float64(r.RunNS) }))
	layer := map[string]float64{"trace.overhead_pct": (tracedRun/plainRun - 1) * 100}
	for k, v := range probe.Layer {
		layer[k] = v
	}
	// The workload's own layer figures and per-layer self times, as
	// medians over the traced repetitions. Only the plan figures among
	// them are declared; the rest are printed.
	declared := map[string]bool{}
	for _, d := range PerLayer {
		declared[d.Name] = true
	}
	var names []string
	for _, r := range traced {
		for k, d := range SelfTimes(r.Spans) {
			r.Layer["self_ms."+k] = msOf(d)
		}
		for k := range r.Layer {
			if _, seen := layer[k]; !seen {
				layer[k] = 0
				names = append(names, k)
			}
		}
	}
	sort.Strings(names)
	for _, k := range names {
		layer[k] = medianOf(pick(traced, func(r repOut) float64 { return r.Layer[k] }))
		if !declared[k] {
			fmt.Fprintf(stdout, "  %-36s %.6g\n", k, layer[k])
		}
	}
	for _, d := range PerLayer {
		fmt.Fprintf(stdout, "  %-36s %.6g %s\n", d.Name, layer[d.Name], d.Unit)
		res.set(d.Name, layer[d.Name], d.Unit)
	}
	if err := writeSpans(o, traced); err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	return res.print(stdout, stderr)
}

// writeSpans writes every traced repetition's spans as one JSON file.
func writeSpans(o options, traced []repOut) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	var reps [][]Span
	for _, r := range traced {
		reps = append(reps, r.Spans)
	}
	b, err := json.Marshal(reps)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed)), b, 0o644)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.Correct = false
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) print(stdout, stderr io.Writer) int {
	b, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

func pick(rs []repOut, f func(repOut) float64) []float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return xs
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

// describe reports a timing the way the benchmark states every timing:
// the median, plus the highest percentile with at least ten samples
// beyond it (the maximum when there are too few samples), and the count.
func describe(xs []float64, unit string) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	tail := fmt.Sprintf("max %.6g", s[len(s)-1])
	for _, p := range []float64{0.999, 0.99, 0.95, 0.9, 0.75} {
		if float64(len(s))*(1-p) >= 10 {
			tail = fmt.Sprintf("p%g %.6g", p*100, quantile(s, p))
			break
		}
	}
	return fmt.Sprintf("median %.6g %s, %s %s (n=%d)", medianOf(s), unit, tail, unit, len(s))
}

func digestLine(d map[string]int) string {
	if len(d) == 1 {
		for k := range d {
			return k + " (identical in every repetition)"
		}
	}
	var parts []string
	for k, n := range d {
		parts = append(parts, fmt.Sprintf("%s x%d", k, n))
	}
	sort.Strings(parts)
	return "MISMATCH " + strings.Join(parts, ", ")
}

// Manifest records what produced a result.
type Manifest struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	Params     Params `json:"params"`
}

func manifestFor(o options, nproc int, p Params) Manifest {
	m := Manifest{
		GoVersion: runtime.Version(), GOMAXPROCS: nproc, NProc: nproc, CPU: cpuModel(),
		Revision: "unknown", Modified: "unknown",
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Params: p,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Revision = s.Value
			case "vcs.modified":
				m.Modified = s.Value
			}
		}
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}
