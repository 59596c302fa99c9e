// Package tflite models the TFLite-style inference runtime the paper's
// benchmarks are built on: an interpreter that executes a model graph on
// the CPU or partially on a delegate (GPU, Hexagon, or NNAPI), a one-time
// initialization step (model load + delegate compilation), and the
// random-input generation quirk of the command-line benchmark utility
// (§IV-A's libc++ vs libstdc++ anecdote).
package tflite

import (
	"fmt"
	"time"

	"aitax/internal/core"
	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/faults"
	"aitax/internal/models"
	"aitax/internal/nn"
	"aitax/internal/nnapi"
	"aitax/internal/plan"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/snpe"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/trace"
	"aitax/internal/work"
)

// Delegate selects the interpreter's execution path.
type Delegate int

// Available delegates, matching the paper's §III-B configurations.
const (
	DelegateCPU Delegate = iota
	DelegateGPU
	DelegateHexagon
	DelegateNNAPI
)

// String names the delegate.
func (d Delegate) String() string {
	switch d {
	case DelegateCPU:
		return "cpu"
	case DelegateGPU:
		return "gpu-delegate"
	case DelegateHexagon:
		return "hexagon-delegate"
	case DelegateNNAPI:
		return "nnapi"
	default:
		return fmt.Sprintf("delegate(%d)", int(d))
	}
}

// Runtime bundles one simulated process's execution plumbing: the
// engine, the OS scheduler, the platform, and the shared accelerator
// resources (one DSP, one GPU queue per SoC).
type Runtime struct {
	Eng      *sim.Engine
	Sch      *sched.Scheduler
	Platform *soc.SoC
	DSP      *sim.Resource
	GPUQueue *sim.Resource
	RNG      *sim.RNG

	// Tracer, when set, threads span recording through every framework,
	// driver and FastRPC layer built from this runtime. Nil (the
	// default) disables tracing at zero cost and leaves runs
	// byte-identical to untraced ones.
	Tracer *telemetry.Tracer
	// Metrics, when set, aggregates counters and latency histograms from
	// the same layers. Nil disables collection.
	Metrics *telemetry.Registry
	// Faults, when set, injects offload failures (FastRPC errors,
	// delegate-init failures, stalls, thermal trips) into every channel
	// and framework built from this runtime. Nil keeps the stack
	// infallible and byte-identical to a build without fault injection.
	Faults *faults.Injector
	// Plans shares compiled inference plans — partition assignments and
	// op-level cost schedules — across every interpreter and framework
	// this runtime (and, through plan.Shared, every other runtime in the
	// process) builds. Cached artifacts are pure functions of (model,
	// dtype, delegate, platform), so sharing never changes results. Nil
	// disables caching; NewRuntime defaults it to plan.Shared.
	Plans *plan.Cache
}

// NewRuntime creates a runtime on a fresh platform.
func NewRuntime(eng *sim.Engine, sch *sched.Scheduler, platform *soc.SoC, seed uint64) *Runtime {
	return &Runtime{
		Eng:      eng,
		Sch:      sch,
		Platform: platform,
		DSP:      sim.NewResource(eng, 1),
		GPUQueue: sim.NewResource(eng, 1),
		RNG:      sim.NewRNG(seed),
		Plans:    plan.Shared,
	}
}

// NewStack creates an engine, scheduler and runtime in one call — the
// common test and benchmark setup.
func NewStack(platform *soc.SoC, seed uint64) *Runtime {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	return NewRuntime(eng, sch, platform, seed)
}

// newChannel creates a FastRPC channel wired to the runtime's telemetry.
func (rt *Runtime) newChannel() *fastrpc.Channel {
	ch := fastrpc.NewChannel(rt.Eng, rt.Platform.RPC, rt.DSP)
	ch.Tracer = rt.Tracer
	ch.Metrics = rt.Metrics
	ch.Faults = rt.Faults
	return ch
}

// NewNNAPI builds this process's NNAPI framework instance over the
// shared accelerators.
func (rt *Runtime) NewNNAPI() *nnapi.Framework {
	p := rt.Platform
	gpu := driver.NewGPUTarget("nnapi-gpu", rt.Eng, &p.GPU, rt.GPUQueue, driver.NNAPIVendorSupports)
	gpu.Tracer = rt.Tracer
	cpu := driver.NewCPUTarget("nnapi-cpu-fallback", rt.Sch, &p.Big, 4)
	cpu.Tracer = rt.Tracer
	ref := driver.NewReferenceCPUTarget("nnapi-ref", rt.Sch, &p.Big)
	ref.Tracer = rt.Tracer
	fw := nnapi.New(nnapi.Config{
		Engine:       rt.Eng,
		AccelFP32:    gpu,
		AccelInt8:    driver.NewDSPTarget("nnapi-dsp", &p.DSP, rt.newChannel(), 0.6, driver.NNAPIVendorSupports),
		FallbackCPU:  cpu,
		ReferenceCPU: ref,
	})
	fw.Tracer = rt.Tracer
	fw.Metrics = rt.Metrics
	fw.Faults = rt.Faults
	// Standard-built frameworks use the standard support matrices, so
	// their compiled plans are shareable across instances (and lab
	// workers). Custom frameworks (tests with bespoke targets or support
	// matrices) leave Plans nil and compile privately.
	fw.Plans = rt.Plans
	fw.PlanPlatform = p.Name
	return fw
}

// NewSNPE builds this process's SNPE SDK instance.
func (rt *Runtime) NewSNPE() *snpe.SDK {
	p := rt.Platform
	cpu := driver.NewCPUTarget("snpe-cpu", rt.Sch, &p.Big, 4)
	cpu.Tracer = rt.Tracer
	gpu := driver.NewGPUTarget("snpe-gpu", rt.Eng, &p.GPU, rt.GPUQueue, driver.SNPESupports)
	gpu.Tracer = rt.Tracer
	return &snpe.SDK{
		CPU: cpu,
		GPU: gpu,
		DSP: driver.NewDSPTarget("snpe-dsp", &p.DSP, rt.newChannel(), 0.95, driver.SNPESupports),
	}
}

// Options configure an interpreter.
type Options struct {
	Delegate Delegate
	// Threads is the CPU thread count (default 4, the paper's setup).
	Threads int
	// Preference is the NNAPI execution preference (default
	// FAST_SINGLE_ANSWER, as in §III-B).
	Preference nnapi.Preference
	// NNAPI supplies a framework instance; nil constructs one.
	NNAPI *nnapi.Framework
	// FuseActivations applies the graph-level activation-fusion pass
	// before planning, removing per-op dispatch and launch overheads for
	// element-wise activations. Off by default so the baseline matches
	// the calibrated figures; the "fusion" experiment ablates it.
	FuseActivations bool
	// GPUAllowFP16 runs the GPU delegate in half precision (its real
	// default), ~1.7x faster at reduced numeric precision. Off by
	// default to match the paper's full-precision configuration.
	GPUAllowFP16 bool
	// ProbeOverhead, when positive, wraps accelerator segments with the
	// driver-instrumentation probe at this fractional compute cost (the
	// paper measures 4-7%, i.e. 0.04-0.07; §III-D). CPU segments are
	// never wrapped, matching the paper. Zero disables instrumentation.
	ProbeOverhead float64
}

// Report describes one inference invocation: the summed result of the
// partitioned plan, its boundary crossings, and any mid-run CPU
// fallback's teardown + re-init cost.
type Report = driver.PlanReport

// Interpreter executes one model with one delegate configuration.
type Interpreter struct {
	rt    *Runtime
	Model *models.Model
	DType tensor.DType
	opts  Options

	cpu      *driver.CPUTarget
	segments []driver.Partition
	nnapiFW  *nnapi.Framework
	compiled *nnapi.CompiledModel
	input    *tensor.Tensor
	graph    *nn.Graph            // possibly fused view of Model.Graph
	planKey  plan.Key             // partition-plan cache key (zero when uncached)
	idle     sim.Free[invocation] // finished invocations, kept for reuse

	initialized bool
	fellBack    bool
	// InitTime is the one-time load+compile cost (§IV-C notes the TFLite
	// benchmark tool breaks out model initialization time).
	InitTime time.Duration

	// TransitionOverhead is the per-boundary handoff cost for GPU and
	// Hexagon delegate partitions.
	TransitionOverhead time.Duration
}

// Supported mirrors NewInterpreter's Table-I validation without
// building anything: it reports whether the (model, dtype, delegate)
// combination can compile. Serving's prewarm pass uses it to enumerate
// only combinations that would build.
func Supported(m *models.Model, dt tensor.DType, d Delegate) bool {
	quant := dt == tensor.Int8 || dt == tensor.UInt8
	if quant && !m.Quantizable() {
		return false
	}
	if !m.Support.Supports(d == DelegateNNAPI, dt) {
		return false
	}
	if d == DelegateHexagon && !quant {
		return false
	}
	return true
}

// NewInterpreter validates the (model, precision, delegate) combination
// against the Table-I support matrix and builds the execution plan
// skeleton. Init must run before Invoke.
func (rt *Runtime) NewInterpreter(m *models.Model, dt tensor.DType, opts Options) (*Interpreter, error) {
	quant := dt == tensor.Int8 || dt == tensor.UInt8
	if quant && !m.Quantizable() {
		return nil, fmt.Errorf("tflite: %s has no quantized variant (Table I)", m.Name)
	}
	useNNAPI := opts.Delegate == DelegateNNAPI
	if !m.Support.Supports(useNNAPI, dt) {
		return nil, fmt.Errorf("tflite: %s is not supported with %v at %v (Table I)",
			m.Name, opts.Delegate, dt)
	}
	if opts.Delegate == DelegateHexagon && !quant {
		return nil, fmt.Errorf("tflite: the Hexagon delegate requires a quantized model")
	}
	if opts.ProbeOverhead < 0 || opts.ProbeOverhead > 0.25 {
		return nil, fmt.Errorf("tflite: ProbeOverhead %v outside [0, 0.25]", opts.ProbeOverhead)
	}
	if opts.ProbeOverhead != 0 && opts.Delegate == DelegateNNAPI {
		return nil, fmt.Errorf("tflite: ProbeOverhead is ignored by the NNAPI delegate (it owns its targets); leave it zero")
	}
	if opts.Threads == 0 {
		opts.Threads = 4
	}
	ip := &Interpreter{
		rt:                 rt,
		Model:              m,
		DType:              dt,
		opts:               opts,
		cpu:                driver.NewCPUTarget("tflite-cpu", rt.Sch, &rt.Platform.Big, opts.Threads),
		TransitionOverhead: 80 * time.Microsecond,
	}
	graph := m.Graph
	if opts.FuseActivations {
		graph = nn.FuseActivations(graph)
	}
	ip.cpu.Tracer = rt.Tracer
	ip.graph = graph
	switch opts.Delegate {
	case DelegateCPU:
		ip.segments = []driver.Partition{{Target: ip.cpu, Ops: graph.Ops(),
			Costs: driver.CachedOpCosts(rt.Plans, rt.Platform.Name, m.Name, graph, dt, ip.cpu)}}
	case DelegateGPU:
		gpu := driver.NewGPUTarget("gpu-delegate", rt.Eng, &rt.Platform.GPU, rt.GPUQueue, driver.GPUDelegateSupports)
		if opts.GPUAllowFP16 {
			gpu.AllowFP16()
		}
		gpu.Tracer = rt.Tracer
		ip.buildSegments(trace.Instrument(gpu, rt.Eng, opts.ProbeOverhead, rt.Tracer, rt.Metrics))
	case DelegateHexagon:
		dsp := driver.NewDSPTarget("hexagon-delegate", &rt.Platform.DSP, rt.newChannel(), 0.8, driver.HexagonDelegateSupports)
		ip.buildSegments(trace.Instrument(dsp, rt.Eng, opts.ProbeOverhead, rt.Tracer, rt.Metrics))
	case DelegateNNAPI:
		fw := opts.NNAPI
		if fw == nil {
			fw = rt.NewNNAPI()
		}
		ip.nnapiFW = fw
	default:
		return nil, fmt.Errorf("tflite: unknown delegate %v", opts.Delegate)
	}
	return ip, nil
}

// buildSegments materializes the interpreter's delegate partitioning
// from the cached assignment: the greedy support-matrix split and both
// sides' cost schedules are computed once per (model, dtype, delegate,
// platform) and shared; only the op-slice views are per-interpreter.
func (ip *Interpreter) buildSegments(accel driver.Target) {
	rt, m, graph, dt := ip.rt, ip.Model, ip.graph, ip.DType
	ip.planKey = plan.Key{Kind: "tflite-partition", Model: m.Name, DType: dt,
		Scope: ip.opts.Delegate.String(), Platform: rt.Platform.Name, Variant: graph.NumOps()}
	segs := rt.Plans.Get(ip.planKey, func() any {
		return plan.PartitionSegments(graph.Ops(), dt, accel.Supports)
	}).([]plan.Segment)
	ip.segments = driver.Partitions(graph.Ops(), segs,
		accel, driver.CachedOpCosts(rt.Plans, rt.Platform.Name, m.Name, graph, dt, accel),
		ip.cpu, driver.CachedOpCosts(rt.Plans, rt.Platform.Name, m.Name, graph, dt, ip.cpu))
}

// Segments returns the number of execution partitions (1 when fully on
// one target).
func (ip *Interpreter) Segments() int {
	if ip.opts.Delegate == DelegateNNAPI {
		if ip.compiled == nil {
			return 0
		}
		return len(ip.compiled.Partitions)
	}
	return len(ip.segments)
}

// Accelerated reports whether the current plan runs any partition off
// the CPU. It is false for the CPU delegate, for an NNAPI plan that
// retreated to a CPU path, and after a fallback to the CPU interpreter.
func (ip *Interpreter) Accelerated() bool {
	parts := ip.segments
	if ip.compiled != nil {
		parts = ip.compiled.Partitions
	}
	for _, p := range parts {
		if k := p.Target.Kind(); k != soc.CPUBig && k != soc.CPULittle {
			return true
		}
	}
	return false
}

// SetInput binds a pre-processed input tensor, validating its shape and
// precision against the model the way TFLite's type-checked input API
// does. Inference cost is simulated, so binding is optional; the value
// is the validation and the end-to-end plumbing for examples.
func (ip *Interpreter) SetInput(t *tensor.Tensor) error {
	m := ip.Model
	var want tensor.Shape
	if m.InputW > 0 {
		want = tensor.Shape{1, m.InputH, m.InputW, 3}
	} else if m.Pre.MaxTokens > 0 {
		want = tensor.Shape{1, m.Pre.MaxTokens}
	}
	if want != nil && !t.Shape.Equal(want) {
		return fmt.Errorf("tflite: %s expects input %v, got %v", m.Name, want, t.Shape)
	}
	quantModel := ip.DType == tensor.Int8 || ip.DType == tensor.UInt8
	quantInput := t.DType == tensor.Int8 || t.DType == tensor.UInt8
	if m.InputW > 0 && quantModel != quantInput {
		return fmt.Errorf("tflite: %s (%v) cannot take a %v input", m.Name, ip.DType, t.DType)
	}
	ip.input = t
	return nil
}

// Input returns the currently bound input tensor, or nil.
func (ip *Interpreter) Input() *tensor.Tensor { return ip.input }

// flashReadBytesPerSec is UFS-class storage throughput for model loading.
const flashReadBytesPerSec = 600e6

// Init performs the one-time model load and delegate compilation,
// advancing the virtual clock; done fires when the interpreter is ready.
func (ip *Interpreter) Init(done func()) {
	load := time.Duration(float64(ip.graph.WeightBytes(ip.DType)) /
		flashReadBytesPerSec * float64(time.Second))
	build := time.Duration(ip.graph.NumOps()) * 25 * time.Microsecond

	var compile time.Duration
	switch ip.opts.Delegate {
	case DelegateGPU:
		// Shader compilation is the expensive delegate init.
		compile = time.Duration(ip.graph.NumOps()) * 900 * time.Microsecond
	case DelegateHexagon:
		compile = time.Duration(ip.graph.NumOps()) * 250 * time.Microsecond
	case DelegateNNAPI:
		ip.compiled = ip.nnapiFW.Compile(ip.graph, ip.DType, ip.opts.Preference)
		compile = ip.compiled.CompileTime
	}
	ip.InitTime = load + build + compile
	ip.rt.Eng.After(ip.InitTime, func() {
		// Delegate bring-up (shader compile, DSP graph download) can be
		// rejected by the driver. Production TFLite answers by tearing
		// the delegate down and planning the whole graph on the CPU —
		// the run completes, slower, and the extra init time is tax.
		var accel string
		switch ip.opts.Delegate {
		case DelegateGPU:
			accel = "gpu-delegate"
		case DelegateHexagon:
			accel = "hexagon-delegate"
		}
		if accel != "" {
			if err := ip.rt.Faults.DelegateInit(accel); err != nil {
				ip.rt.Metrics.Inc(telemetry.Labeled("aitax_faults_injected_total", "site", "delegate-init"))
				extra := ip.fallBackToCPU(nil)
				ip.InitTime += extra
				ip.rt.Eng.After(extra, func() {
					ip.initialized = true
					if done != nil {
						done()
					}
				})
				return
			}
		}
		ip.initialized = true
		if done != nil {
			done()
		}
	})
}

// FellBack reports whether the delegate was abandoned for the CPU
// interpreter (at init or mid-run).
func (ip *Interpreter) FellBack() bool { return ip.fellBack }

// fallBackToCPU re-plans the whole graph onto the CPU interpreter and
// returns the teardown + re-init cost the caller must spend in virtual
// time. The re-planning is permanent: subsequent invocations stay on
// the CPU, reproducing production TFLite's delegate teardown.
func (ip *Interpreter) fallBackToCPU(parent *telemetry.ActiveSpan) time.Duration {
	ip.segments = []driver.Partition{{Target: ip.cpu, Ops: ip.graph.Ops(),
		Costs: driver.CachedOpCosts(ip.rt.Plans, ip.rt.Platform.Name, ip.Model.Name, ip.graph, ip.DType, ip.cpu)}}
	ip.fellBack = true
	// The delegate plan died; drop the shared entry so the next compile
	// of this configuration starts from a clean build. Other entries
	// stay warm.
	if ip.planKey != (plan.Key{}) {
		ip.rt.Plans.Invalidate(ip.planKey)
	}
	// Teardown of the delegate's compiled graph plus a fresh CPU
	// interpreter build for the ops it owned.
	cost := time.Duration(ip.graph.NumOps()) * 85 * time.Microsecond
	ip.rt.Tracer.Instant("delegate-fallback", "faults", telemetry.TrackCPU, parent, ip.rt.Eng.Now())
	ip.rt.Metrics.Inc(telemetry.Labeled("aitax_faults_fallbacks_total", "layer", "tflite"))
	ip.rt.Metrics.Observe("aitax_faults_fallback_ms", float64(cost)/float64(time.Millisecond))
	return cost
}

// Invoke runs one inference; done receives the invocation report.
func (ip *Interpreter) Invoke(done func(Report)) {
	ip.InvokeTraced(nil, done)
}

// InvokeWhile invokes back to back while more(i) holds, i counting the
// completed runs, and hands each run's report and virtual duration to
// each (may be nil). It only schedules: the caller drains the engine.
func (ip *Interpreter) InvokeWhile(more func(i int) bool, each func(Report, time.Duration)) {
	var loop func(i int)
	loop = func(i int) {
		if !more(i) {
			return
		}
		start := ip.rt.Eng.Now()
		ip.Invoke(func(rep Report) {
			if each != nil {
				each(rep, ip.rt.Eng.Now().Sub(start))
			}
			loop(i + 1)
		})
	}
	loop(0)
}

// InvokeTraced is Invoke with telemetry context: the invocation becomes
// a "framework" span under parent (may be nil), and every segment's
// driver work is parented beneath it. With the runtime's Tracer unset
// this is exactly Invoke.
func (ip *Interpreter) InvokeTraced(parent *telemetry.ActiveSpan, done func(Report)) {
	if !ip.initialized {
		panic("tflite: Invoke before Init")
	}
	inv := ip.idle.Get()
	if inv == nil {
		inv = &invocation{ip: ip}
		inv.run = driver.NewPlanRunner(ip.rt.Eng, inv.fallback)
		inv.finish = inv.end
	}
	inv.done = done
	inv.fw = ip.rt.Tracer.Start(core.StageFramework.String(), "tflite", telemetry.TrackCPU, parent)
	inv.fw.SetAttr("model", ip.Model.Name)
	inv.fw.SetAttr("delegate", ip.opts.Delegate.String())
	if ip.opts.Delegate == DelegateNNAPI {
		ip.nnapiFW.Execute(ip.compiled, inv.finish)
		return
	}
	inv.run.Run(&ip.segments, ip.DType, ip.TransitionOverhead, inv.fw, inv.finish)
}

// invocation is the in-flight state of one Invoke. Its callbacks are
// built once and the interpreter keeps finished invocations, so a
// steady invoke loop allocates none.
type invocation struct {
	ip     *Interpreter
	fw     *telemetry.ActiveSpan
	done   func(Report)
	run    *driver.PlanRunner
	finish func(Report)
}

// end closes the invocation and hands rep to its caller.
func (inv *invocation) end(rep Report) {
	ip, fw, done := inv.ip, inv.fw, inv.done
	inv.fw, inv.done = nil, nil
	ip.idle.Put(inv)
	fw.End()
	ip.rt.Metrics.Inc("aitax_invocations_total")
	ip.rt.Metrics.Add("aitax_delegate_transitions_total", float64(rep.Transitions))
	ip.rt.Metrics.Observe("aitax_invoke_ms", float64(rep.Total())/float64(time.Millisecond))
	if done != nil {
		done(rep)
	}
}

// fallback is the delegate plan's policy for partition i failing.
func (inv *invocation) fallback(i int, resume func(int)) (time.Duration, bool) {
	ip, fw := inv.ip, inv.fw
	if ip.segments[i].Target == driver.Target(ip.cpu) {
		return 0, false
	}
	// The delegate died mid-run (retries exhausted or the
	// accelerator is down). Tear it down and re-run the whole
	// graph on the CPU interpreter — the frame completes.
	t0 := ip.rt.Eng.Now()
	cost := ip.fallBackToCPU(fw)
	ip.rt.Eng.After(cost, func() {
		ip.rt.Tracer.Emit("fallback", "faults", telemetry.TrackCPU, fw, t0, ip.rt.Eng.Now())
		resume(0) // segments are now the single CPU plan
	})
	return cost, true
}

// StdLib selects the C++ standard library the benchmark binary was
// compiled against — the paper found libc++ generates random reals
// significantly faster than integers, and libstdc++ the exact opposite.
type StdLib int

// Standard libraries.
const (
	LibCXX StdLib = iota
	LibStdCXX
)

// String names the library.
func (l StdLib) String() string {
	if l == LibStdCXX {
		return "libstdc++"
	}
	return "libc++"
}

// RandomInputWork is the cost of the benchmark utility's random input
// tensor generation — its stand-in for data capture.
func RandomInputWork(elems int, dt tensor.DType, lib StdLib) work.Work {
	quant := dt == tensor.Int8 || dt == tensor.UInt8
	var opsPerElem int64
	switch {
	case lib == LibCXX && quant:
		opsPerElem = 120 // slow integer distribution path
	case lib == LibCXX && !quant:
		opsPerElem = 5 // fast real path
	case lib == LibStdCXX && quant:
		opsPerElem = 5
	default:
		opsPerElem = 120
	}
	return work.Work{
		Ops:   int64(elems) * opsPerElem,
		Bytes: int64(elems) * int64(dt.Size()+8),
	}
}
