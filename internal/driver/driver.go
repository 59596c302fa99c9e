// Package driver implements the hardware delegates that execute model
// graph segments on simulated devices: the multi-threaded CPU path, the
// GPU delegate, and the Hexagon (DSP) delegate behind FastRPC. A target
// advertises per-op support — the information NNAPI's partitioner works
// from — and executes contiguous op segments asynchronously on the
// simulation engine.
//
// The support matrices encode the driver-quality findings of §IV-B: open
// delegates and vendor NNAPI drivers support different op subsets at
// different precisions, and what a driver does not support falls back to
// the CPU.
package driver

import (
	"time"

	"aitax/internal/core"
	"aitax/internal/fastrpc"
	"aitax/internal/nn"
	"aitax/internal/plan"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
)

// Result describes how a segment execution spent its time.
type Result struct {
	// Compute is pure device execution time.
	Compute time.Duration
	// Overhead is dispatch/transport cost (interpreter loop, kernel
	// launches, RPC crossings, session setup).
	Overhead time.Duration
	// Queue is time spent waiting behind other clients of the device.
	Queue time.Duration
	// EnergyJ is the estimated active energy spent, in joules — the
	// quantity NNAPI's LOW_POWER preference optimizes.
	EnergyJ float64
	// Retry is virtual time burned in failed transport attempts and
	// backoff waits (injected faults). Zero on fault-free runs.
	Retry time.Duration
	// Faults counts injected faults absorbed while executing.
	Faults int
	// RPC is the FastRPC split's overhead (session setup, transport
	// including cache flush, and DSP queue) and Exec the DSP hold of the
	// calls behind this result. Only a DSP target sets them; they are a
	// second view of time already in Compute, Overhead and Queue.
	RPC  time.Duration
	Exec time.Duration
	// Err is set when the segment ultimately failed (retries exhausted
	// or the accelerator is down); the framework above decides whether
	// to fall back to another target.
	Err error
}

// Total returns the segment wall time, retries included.
func (r Result) Total() time.Duration { return r.Compute + r.Overhead + r.Queue + r.Retry }

// Add accumulates another result. The first error wins: once a segment
// fails, later segments of the same report don't overwrite the cause.
func (r Result) Add(o Result) Result {
	err := r.Err
	if err == nil {
		err = o.Err
	}
	return Result{
		Compute:  r.Compute + o.Compute,
		Overhead: r.Overhead + o.Overhead,
		Queue:    r.Queue + o.Queue,
		EnergyJ:  r.EnergyJ + o.EnergyJ,
		Retry:    r.Retry + o.Retry,
		Faults:   r.Faults + o.Faults,
		RPC:      r.RPC + o.RPC,
		Exec:     r.Exec + o.Exec,
		Err:      err,
	}
}

// Target is a delegate capable of running graph segments: the one
// interface the frameworks (TFLite, NNAPI, SNPE) run every segment
// through.
type Target interface {
	// Name identifies the target ("cpu", "gpu-delegate", "hexagon", ...).
	Name() string
	// Kind reports the underlying device class.
	Kind() soc.Kind
	// Supports reports whether the op can run here at precision dt.
	Supports(op *nn.Op, dt tensor.DType) bool
	// OpCosts returns the device time of each op at precision dt, in
	// segment order: exactly the per-op times Execute computes itself
	// when it is given no schedule.
	OpCosts(ops []*nn.Op, dt tensor.DType) []time.Duration
	// Execute runs a contiguous op segment and calls done (when non-nil)
	// once finished. costs is either nil, pricing each op as it runs, or
	// OpCosts(ops, dt), which saves recomputing device times per frame;
	// the two give identical results. Any spans the target emits are
	// parented under parent, which may be nil.
	Execute(ops []*nn.Op, costs []time.Duration, dt tensor.DType, parent *telemetry.ActiveSpan, done func(Result))
}

// CachedOpCosts returns t's cost schedule for the whole graph g at dt,
// built once per (model, dtype, target, platform, graph variant) through
// the plan cache c. A nil cache or an unnamed model computes it
// privately, since an empty name cannot tell two graphs apart.
func CachedOpCosts(c *plan.Cache, platform, model string, g *nn.Graph, dt tensor.DType, t Target) []time.Duration {
	if model == "" {
		return t.OpCosts(g.Ops(), dt)
	}
	k := plan.Key{Kind: "op-costs", Model: model, DType: dt, Scope: t.Name(),
		Platform: platform, Variant: g.NumOps()}
	costs, _ := c.Get(k, func() any { return t.OpCosts(g.Ops(), dt) }).([]time.Duration)
	return costs
}

// segmentTime sums the device time of a segment at 1/efficiency, using
// the precomputed schedule when one is supplied.
func segmentTime(ops []*nn.Op, costs []time.Duration, dt tensor.DType, dev *soc.Device, efficiency float64) time.Duration {
	var total time.Duration
	if costs != nil {
		for _, c := range costs {
			total += c
		}
	} else {
		for _, op := range ops {
			total += dev.TimeFor(op.Work(dt), dt)
		}
	}
	if efficiency > 0 && efficiency != 1 {
		total = time.Duration(float64(total) / efficiency)
	}
	return total
}

// segmentIOBytes estimates the activation payload crossing a delegate
// boundary: the first op's inputs plus the last op's outputs.
func segmentIOBytes(ops []*nn.Op, dt tensor.DType) int64 {
	if len(ops) == 0 {
		return 0
	}
	sz := int64(dt.Size())
	return ops[0].InElems()*sz + ops[len(ops)-1].OutElems()*sz
}

// --- CPU target ---

// CPUTarget executes segments on the scheduler with a fixed thread count,
// the way TFLite's default CPU path does. Threads are pinned to the big
// cluster (TFLite's default affinity on big.LITTLE parts).
type CPUTarget struct {
	name    string
	sch     *sched.Scheduler
	dev     *soc.Device
	threads []*sched.Thread
	// PerOpOverhead is the interpreter's per-op dispatch cost.
	PerOpOverhead time.Duration
	// Efficiency derates the device's effective rate (driver quality).
	Efficiency float64
	// Tracer, when set, wraps each segment in a span. Nil disables.
	Tracer *telemetry.Tracer

	// replay memoises quiet segments; built on the first one.
	replay *cpuReplay
	idle   sim.Free[cpuSegRun] // finished segment runs, kept for reuse
}

// NewCPUTarget creates a CPU delegate with nThreads worker threads.
func NewCPUTarget(name string, sch *sched.Scheduler, dev *soc.Device, nThreads int) *CPUTarget {
	if nThreads <= 0 {
		panic("driver: need at least one CPU thread")
	}
	t := &CPUTarget{
		name:          name,
		sch:           sch,
		dev:           dev,
		PerOpOverhead: 3 * time.Microsecond,
		Efficiency:    1,
	}
	for i := 0; i < nThreads; i++ {
		t.threads = append(t.threads, sch.Spawn(name+"-worker", sched.BigOnly))
	}
	return t
}

// NewReferenceCPUTarget builds NNAPI's reference CPU implementation: a
// single unpinned, migratory thread running unoptimized kernels. This is
// the path NNAPI lands on when a driver rejects a quantized graph — the
// Fig. 6 profile of one thread bouncing across cores.
func NewReferenceCPUTarget(name string, sch *sched.Scheduler, dev *soc.Device) *CPUTarget {
	return &CPUTarget{
		name:          name,
		sch:           sch,
		dev:           dev,
		threads:       []*sched.Thread{sch.SpawnMigratory(name+"-ref", nil)},
		PerOpOverhead: 15 * time.Microsecond,
		Efficiency:    0.25,
	}
}

// Name implements Target.
func (t *CPUTarget) Name() string { return t.name }

// Kind implements Target.
func (t *CPUTarget) Kind() soc.Kind { return soc.CPUBig }

// Threads returns the worker thread count.
func (t *CPUTarget) Threads() int { return len(t.threads) }

// Supports implements Target: the CPU reference path runs everything.
func (t *CPUTarget) Supports(op *nn.Op, dt tensor.DType) bool { return true }

// parallelEfficiency models the diminishing returns of intra-op
// threading (TFLite's observed ~3.2x at 4 threads).
func parallelEfficiency(n int) float64 {
	if n <= 1 {
		return 1
	}
	return 1 - 0.067*float64(n-1)
}

// OpCosts implements Target.
func (t *CPUTarget) OpCosts(ops []*nn.Op, dt tensor.DType) []time.Duration {
	return plan.OpCosts(ops, dt, t.dev)
}

// cpuSegRun is the in-flight state of one CPU segment execution. The
// per-op fan-out reuses one thread-completion callback, and the target
// keeps finished runs, so a steady segment loop allocates none.
type cpuSegRun struct {
	t     *CPUTarget
	ops   []*nn.Op
	costs []time.Duration
	dt    tensor.DType
	sp    *telemetry.ActiveSpan
	done  func(Result)
	res   Result
	eff   float64

	i          int // current op index
	remaining  int // threads still running the current op
	threadDone func()
	record     bool // the segment's scheduler effect is being recorded
	// resumeFn, built once, is the event that closes a run of ops
	// applied at once; seqEnd is the engine's schedule count just after
	// it was scheduled.
	resumeFn func()
	seqEnd   uint64
}

func (r *cpuSegRun) onThreadDone() {
	r.remaining--
	if r.remaining == 0 {
		r.i++
		r.runOp(true)
	}
}

// resume carries on at the last barrier a run of ops applied at once
// reached.
func (r *cpuSegRun) resume() {
	if r.t.sch.Engine().Scheduled() != r.seqEnd {
		panic("driver: an event was scheduled inside a run of CPU ops applied at once")
	}
	r.runOp(true)
}

// burst is op i's share for each worker thread.
func (r *cpuSegRun) burst() time.Duration {
	t := r.t
	var opTime time.Duration
	if r.costs != nil {
		opTime = r.costs[r.i]
	} else {
		opTime = t.dev.TimeFor(r.ops[r.i].Work(r.dt), r.dt)
	}
	return time.Duration(float64(opTime)/(float64(len(t.threads))*r.eff)) + t.PerOpOverhead
}

// charge adds an op whose per-thread burst is d to the result.
func (r *cpuSegRun) charge(d time.Duration) {
	t := r.t
	r.res.Compute += d - t.PerOpOverhead
	r.res.Overhead += t.PerOpOverhead
	r.res.EnergyJ += t.dev.ActivePowerW * float64(len(t.threads)) * d.Seconds()
}

// runOp starts op i, or ends the segment after its last op. At a
// barrier (the previous op ended in one of the segment's own events, and
// nothing follows in that event) it first applies every next op the
// workers run alone (sched.RunAlone) at once and carries on from a
// resume event at the last barrier so reached. An op started from
// Execute runs inside its caller's event, which may go on to start other
// threads, so it always takes the per-op path. So does a segment being
// recorded for replay, whose recording counts one event per slice, and
// one with a Tracer.
func (r *cpuSegRun) runOp(barrier bool) {
	t := r.t
	if barrier && !r.record && t.Tracer == nil {
		from, at := r.i, t.sch.Engine().Now()
		for ; r.i < len(r.ops); r.i++ {
			d := r.burst()
			end, ok := t.sch.RunAlone(t.threads, at, d)
			if !ok {
				break
			}
			r.charge(d)
			at = end
		}
		if r.i > from {
			eng := t.sch.Engine()
			eng.Schedule(at, r.resumeFn)
			r.seqEnd = eng.Scheduled()
			return
		}
	}
	if r.i >= len(r.ops) {
		r.sp.End()
		if r.record {
			t.replay.end(r.res)
		}
		done, res := r.done, r.res
		*r = cpuSegRun{t: t, threadDone: r.threadDone, resumeFn: r.resumeFn}
		t.idle.Put(r)
		if done != nil {
			done(res)
		}
		return
	}
	d := r.burst()
	r.charge(d)
	r.remaining = len(t.threads)
	for _, th := range t.threads {
		th.Exec(d, r.threadDone)
	}
}

// Execute implements Target: ops run in graph order; each op's work is
// split across the worker threads, so background CPU load stretches the
// segment via scheduler contention (the Fig. 10 effect). The whole
// segment becomes one "cpu-exec" span on the CPU track.
func (t *CPUTarget) Execute(ops []*nn.Op, costs []time.Duration, dt tensor.DType, parent *telemetry.ActiveSpan, done func(Result)) {
	record := false
	if t.Tracer == nil && len(ops) > 0 {
		if fp, ok := t.sch.Fingerprint(t.threads); ok {
			if t.replay == nil {
				t.replay = &cpuReplay{Replayer: t.sch.NewReplayer(t.threads), index: make(map[segIndex]int)}
				t.replay.fire = t.replay.finish
			}
			key := segKey{ops: &ops[0], n: len(ops), dt: dt,
				perOp: t.PerOpOverhead, eff: t.Efficiency, fp: fp}
			if len(costs) > 0 {
				key.costs = &costs[0]
			}
			if t.replay.start(&key, done) {
				return
			}
			record = true
		}
	}
	sp := t.Tracer.Start("cpu-exec", "driver", telemetry.TrackCPU, parent)
	sp.SetAttr("target", t.name)
	r := t.idle.Get()
	if r == nil {
		r = &cpuSegRun{t: t}
		r.threadDone, r.resumeFn = r.onThreadDone, r.resume
	}
	r.ops, r.costs, r.dt, r.sp, r.done, r.record = ops, costs, dt, sp, done, record
	r.eff = parallelEfficiency(len(t.threads)) * t.Efficiency
	r.runOp(false)
}

// maxReplayMemo bounds a CPU target's replay memo. A steady loop needs
// one entry per (segment, scheduler state) it repeats: two or three for
// a whole-graph CPU invoke, but one per CPU partition when NNAPI splits
// a graph, which runs to dozens.
const maxReplayMemo = 64

// cpuReplay memoises the scheduler effect and result of segments that a
// CPU target starts on a quiet scheduler (see sched.Replayer) and
// replays a repeat with one engine event instead of re-simulating it
// thread by thread. It is off while the target has a Tracer, whose spans
// need the real events.
type cpuReplay struct {
	*sched.Replayer
	memo []replayEntry // oldest replaced first once full
	next int           // eviction cursor
	// index finds a key's memo slot by a small hashable summary; the
	// slot's full key is compared before a replay, so two keys with one
	// summary cost a hit but never give a wrong one. It holds only
	// summaries of keys in memo.
	index map[segIndex]int
	rec   segKey // key of the segment being recorded

	// The replay in flight; fire is built once so a replay allocates
	// nothing.
	done func(Result)
	res  Result
	fire func()

	hits int
}

// segKey identifies a segment execution: the same op and cost slices at
// the same precision and target tuning, from the same scheduler state.
type segKey struct {
	ops   **nn.Op
	n     int
	costs *time.Duration
	dt    tensor.DType
	perOp time.Duration
	eff   float64
	fp    sched.Fingerprint
}

// segIndex summarises a segKey for the memo index: the segment and the
// hash of the scheduler state.
type segIndex struct {
	ops **nn.Op
	n   int
	fp  uint64
}

func (k *segKey) index() segIndex { return segIndex{ops: k.ops, n: k.n, fp: k.fp.Hash()} }

type replayEntry struct {
	key    segKey
	ix     segIndex
	effect sched.Effect
	res    Result
}

// start replays a memoised segment and reports true, or begins recording
// it and reports false.
func (c *cpuReplay) start(key *segKey, done func(Result)) bool {
	if i, ok := c.index[key.index()]; ok {
		if e := &c.memo[i]; e.key == *key {
			c.done, c.res = done, e.res
			c.Replay(&e.effect, c.fire)
			return true
		}
	}
	c.rec = *key
	c.Begin()
	return false
}

// end closes the recording begun by start, memoising the segment when
// it provably ran alone.
func (c *cpuReplay) end(res Result) {
	var eff sched.Effect
	if !c.End(&eff) {
		return
	}
	e := replayEntry{key: c.rec, ix: c.rec.index(), effect: eff, res: res}
	slot := len(c.memo)
	if slot < maxReplayMemo {
		c.memo = append(c.memo, e)
	} else {
		slot = c.next
		c.next = (c.next + 1) % maxReplayMemo
		if old := c.memo[slot].ix; c.index[old] == slot {
			delete(c.index, old)
		}
		c.memo[slot] = e
	}
	c.index[e.ix] = slot
}

// finish is the body of the replay event, after the scheduler effect.
func (c *cpuReplay) finish() {
	done, res := c.done, c.res
	c.done = nil
	c.hits++
	if done != nil {
		done(res)
	}
}

// --- GPU target ---

// GPUTarget executes segments on the GPU behind a serialized command
// queue, with a per-segment dispatch and per-op kernel-launch overhead.
type GPUTarget struct {
	name  string
	eng   *sim.Engine
	dev   *soc.Device
	queue *sim.Resource
	// DispatchOverhead is paid once per segment (buffer map/unmap).
	DispatchOverhead time.Duration
	// KernelLaunch is paid per op.
	KernelLaunch time.Duration
	// Efficiency derates the device rate (shader-compiler quality).
	Efficiency float64
	// Tracer, when set, records dispatch and GPU execution spans. Nil
	// disables.
	Tracer   *telemetry.Tracer
	supports func(op *nn.Op, dt tensor.DType) bool
	idle     sim.Free[gpuCall] // finished calls, kept for reuse
}

// NewGPUTarget creates a GPU delegate over a shared GPU queue resource.
func NewGPUTarget(name string, eng *sim.Engine, dev *soc.Device, queue *sim.Resource, supports func(*nn.Op, tensor.DType) bool) *GPUTarget {
	return &GPUTarget{
		name: name, eng: eng, dev: dev, queue: queue,
		DispatchOverhead: 180 * time.Microsecond,
		KernelLaunch:     9 * time.Microsecond,
		Efficiency:       1,
		supports:         supports,
	}
}

// AllowFP16 switches the delegate to half-precision arithmetic (the
// TFLite GPU delegate's default "precision loss allowed" mode): ~1.7x
// the fp32 rate on packed-math mobile GPUs, at reduced numeric
// precision. The paper's setups run full precision; this is the knob a
// deployment would actually flip.
func (t *GPUTarget) AllowFP16() {
	t.Efficiency *= 1.7
	t.name += "-fp16"
}

// Name implements Target.
func (t *GPUTarget) Name() string { return t.name }

// Kind implements Target.
func (t *GPUTarget) Kind() soc.Kind { return soc.GPU }

// Supports implements Target.
func (t *GPUTarget) Supports(op *nn.Op, dt tensor.DType) bool { return t.supports(op, dt) }

// OpCosts implements Target.
func (t *GPUTarget) OpCosts(ops []*nn.Op, dt tensor.DType) []time.Duration {
	return plan.OpCosts(ops, dt, t.dev)
}

// Execute implements Target: the buffer map/unmap becomes a
// "gpu-dispatch" span on the CPU track linked to a "gpu-exec" span on
// the GPU track.
func (t *GPUTarget) Execute(ops []*nn.Op, costs []time.Duration, dt tensor.DType, parent *telemetry.ActiveSpan, done func(Result)) {
	c := t.idle.Get()
	if c == nil {
		c = &gpuCall{t: t}
		c.dispatchFn, c.execFn = c.dispatched, c.executed
	}
	c.parent, c.done = parent, done
	c.compute = segmentTime(ops, costs, dt, t.dev, t.Efficiency)
	c.launches = time.Duration(len(ops)) * t.KernelLaunch
	c.t0 = t.eng.Now()
	t.eng.After(t.DispatchOverhead, c.dispatchFn)
}

// gpuCall is the in-flight state of one GPU segment. Its callbacks are
// built once and the target keeps finished calls, so a steady segment
// loop allocates none.
type gpuCall struct {
	t                 *GPUTarget
	parent, disp      *telemetry.ActiveSpan
	done              func(Result)
	compute, launches time.Duration
	t0, enqueued      sim.Time

	dispatchFn func()
	execFn     func(start, end sim.Time)
}

// dispatched runs when the buffer map/unmap is done: the segment joins
// the GPU queue.
func (c *gpuCall) dispatched() {
	t := c.t
	c.enqueued = t.eng.Now()
	c.disp = t.Tracer.Emit("gpu-dispatch", "driver", telemetry.TrackCPU, c.parent, c.t0, c.enqueued)
	t.queue.Acquire(c.compute+c.launches, c.execFn)
}

// executed runs when the GPU has run the segment.
func (c *gpuCall) executed(start, end sim.Time) {
	t := c.t
	exec := t.Tracer.Emit("gpu-exec", "driver", telemetry.TrackGPU, c.parent, start, end)
	t.Tracer.Link("gpu", c.disp, exec)
	hold := c.compute + c.launches
	res := Result{
		Compute:  c.compute,
		Overhead: t.DispatchOverhead + c.launches,
		Queue:    start.Sub(c.enqueued),
		EnergyJ:  t.dev.ActivePowerW * hold.Seconds(),
	}
	done := c.done
	c.parent, c.disp, c.done = nil, nil, nil
	t.idle.Put(c)
	if done != nil {
		done(res)
	}
}

// --- DSP (Hexagon) target ---

// DSPTarget executes segments on the Hexagon DSP through a FastRPC
// channel: one RPC invocation per segment, with the segment's boundary
// activations as the payload. The first invocation pays the session
// setup (cold start); concurrent clients of the same DSP queue.
type DSPTarget struct {
	name    string
	dev     *soc.Device
	channel *fastrpc.Channel
	// Efficiency derates the device rate: vendor-tuned stacks (SNPE)
	// sit near 1.0, generic NNAPI drivers lower (§IV-B).
	Efficiency float64
	supports   func(op *nn.Op, dt tensor.DType) bool
	idle       sim.Free[dspCall] // finished calls, kept for reuse
}

// NewDSPTarget creates a DSP delegate over a FastRPC channel.
func NewDSPTarget(name string, dev *soc.Device, ch *fastrpc.Channel, efficiency float64, supports func(*nn.Op, tensor.DType) bool) *DSPTarget {
	if efficiency <= 0 {
		panic("driver: DSP efficiency must be positive")
	}
	return &DSPTarget{name: name, dev: dev, channel: ch, Efficiency: efficiency, supports: supports}
}

// Name implements Target.
func (t *DSPTarget) Name() string { return t.name }

// Kind implements Target.
func (t *DSPTarget) Kind() soc.Kind { return soc.DSP }

// Supports implements Target.
func (t *DSPTarget) Supports(op *nn.Op, dt tensor.DType) bool { return t.supports(op, dt) }

// Channel exposes the underlying FastRPC channel (for cold-start state).
func (t *DSPTarget) Channel() *fastrpc.Channel { return t.channel }

// InitGraph models driver-side graph bring-up on the DSP: weight
// download over the fabric plus per-op kernel configuration, all of
// which holds the DSP. NNAPI performs this once during compilation (and
// it is the brief CDSP spike the paper's Fig. 6 shows even for plans the
// driver ultimately rejects).
func (t *DSPTarget) InitGraph(ops []*nn.Op, dt tensor.DType, done func(Result)) {
	var weights int64
	for _, op := range ops {
		weights += op.WeightBytes(dt)
	}
	hold := time.Duration(float64(weights)/t.dev.MemBytesPerSec*float64(time.Second)) +
		time.Duration(len(ops))*120*time.Microsecond
	t.channel.InvokeSpan(weights, hold, nil, "graph-init", func(b fastrpc.Breakdown) {
		if done != nil {
			done(resultOf(b))
		}
	})
}

// GraphIniter is implemented by targets with a distinct driver-side
// graph bring-up step.
type GraphIniter interface {
	InitGraph(ops []*nn.Op, dt tensor.DType, done func(Result))
}

// OpCosts implements Target.
func (t *DSPTarget) OpCosts(ops []*nn.Op, dt tensor.DType) []time.Duration {
	return plan.OpCosts(ops, dt, t.dev)
}

// Execute implements Target: the FastRPC channel records the
// rpc-down / infer / rpc-up sub-spans and their CPU↔DSP flow links.
func (t *DSPTarget) Execute(ops []*nn.Op, costs []time.Duration, dt tensor.DType, parent *telemetry.ActiveSpan, done func(Result)) {
	c := t.idle.Get()
	if c == nil {
		c = &dspCall{t: t}
		c.fn = c.returned
	}
	c.done = done
	compute := segmentTime(ops, costs, dt, t.dev, t.Efficiency)
	payload := segmentIOBytes(ops, dt)
	t.channel.InvokeSpan(payload, compute, parent, core.StageKernel.String(), c.fn)
}

// dspCall is the in-flight state of one DSP segment. Its callback is
// built once and the target keeps finished calls, so a steady segment
// loop allocates none.
type dspCall struct {
	t    *DSPTarget
	done func(Result)
	fn   func(fastrpc.Breakdown)
}

// returned runs when the segment's FastRPC call has returned.
func (c *dspCall) returned(b fastrpc.Breakdown) {
	t, done := c.t, c.done
	c.done = nil
	t.idle.Put(c)
	if done != nil {
		res := resultOf(b)
		res.EnergyJ = t.dev.ActivePowerW * b.Exec.Seconds()
		done(res)
	}
}

// resultOf is the Result of one FastRPC call, with its FastRPC split:
// RPC is everything but the DSP hold and the retry time.
func resultOf(b fastrpc.Breakdown) Result {
	return Result{Compute: b.Exec, Overhead: b.Setup + b.Transport, Queue: b.Queue,
		Retry: b.Retry, Faults: b.Faults, RPC: b.Setup + b.Transport + b.Queue, Exec: b.Exec, Err: b.Err}
}
