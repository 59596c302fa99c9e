// Package plan is the compiled-inference-plan cache: partition
// assignments and op-level cost schedules computed once per (model,
// dtype, delegate, platform) and shared across every interpreter and
// framework instance in the process — including the lab's parallel
// workers, which all run the same configurations against their own
// simulated stacks.
//
// The cache stores only *derived, deterministic* artifacts: pure
// functions of the model graph, the precision, the support matrices and
// the platform's device constants. Re-building an entry always yields
// the same value, so sharing (or invalidating) an entry can never
// change simulation results — it only removes repeated host-side work.
// Anything fault-dependent (a re-planned CPU-only layout, a shattered
// quantized plan's one-time DSP probe) stays per-instance and is never
// cached; fault-driven re-plans additionally invalidate the affected
// entry so later compiles start from a clean build.
package plan

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aitax/internal/nn"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

// Key identifies one cached plan artifact.
type Key struct {
	// Kind separates artifact namespaces ("tflite-partition",
	// "nnapi-partition", "op-costs", ...).
	Kind  string
	Model string
	DType tensor.DType
	// Scope is the delegate or target the artifact belongs to (partition
	// plans are per delegate, cost schedules per target).
	Scope string
	// Platform is the SoC product name; device constants differ per SoC.
	Platform string
	// Variant disambiguates graph variants that share a model name —
	// callers pass the op count, which differs whenever activation
	// fusion changed the graph.
	Variant int
}

type entry struct {
	once sync.Once
	val  any
}

// cacheShards is the number of independently locked map shards. Sixteen
// comfortably covers the worst observed fan-in (a fleet run's worker
// pool compiling one (platform, model) key per catalog entry at shard
// start) without bloating the empty cache.
const cacheShards = 16

// cacheShard is one independently locked slice of the key space.
// Padding would buy nothing here: the mutex is held for a map operation,
// not a spin.
type cacheShard struct {
	mu      sync.Mutex
	entries map[Key]*entry

	hits, misses, invalidations int64
}

// Cache is a concurrent build-once store. The zero value is not usable;
// construct with New. Get is safe to call from any number of goroutines:
// the first caller for a key runs the build function, everyone else
// blocks until the value is ready (sync.Once), and distinct keys build
// concurrently. The key space is sharded across independently locked
// maps so that many keys resolving at once — a fleet run's shards all
// warming their (platform, model) plans at fan-in — do not serialize on
// one mutex; builds themselves always ran outside the lock (per-entry
// sync.Once), so sharding only removes map-access contention.
type Cache struct {
	shards [cacheShards]cacheShard

	// compileNS accumulates host wall time spent inside build functions
	// (atomically; builds run outside the shard locks). It is the
	// plan-compilation tax callers have paid so far — the quantity
	// Prewarm moves from the first request to startup.
	compileNS int64
}

// New returns an empty cache.
func New() *Cache {
	c := &Cache{}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*entry)
	}
	return c
}

// shard picks the slice of the key space k lives in (FNV-1a over every
// key field; strings dominate the entropy, the ints break ties between
// graph variants).
func (c *Cache) shard(k Key) *cacheShard {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, s := range [...]string{k.Kind, k.Model, k.Scope, k.Platform} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime
		}
		h ^= 0xff // field separator so ("ab","c") != ("a","bc")
		h *= prime
	}
	h ^= uint64(k.DType)
	h *= prime
	h ^= uint64(k.Variant)
	h *= prime
	return &c.shards[h%cacheShards]
}

// Shared is the process-wide cache every standard-built runtime uses.
// Frameworks constructed with custom support matrices or targets must
// not use it (their plans are not a function of the key alone).
var Shared = New()

// Get returns the cached value for k, building it with build exactly
// once per entry lifetime. A nil cache always builds.
func (c *Cache) Get(k Key, build func() any) any {
	if c == nil {
		return build()
	}
	sh := c.shard(k)
	sh.mu.Lock()
	e := sh.entries[k]
	if e == nil {
		e = &entry{}
		sh.entries[k] = e
		sh.misses++
	} else {
		sh.hits++
	}
	sh.mu.Unlock()
	e.once.Do(func() {
		start := time.Now()
		e.val = build()
		atomic.AddInt64(&c.compileNS, int64(time.Since(start)))
	})
	return e.val
}

// CompileTime reports cumulative host wall time spent building cache
// entries. Deltas around a request isolate the plan-compilation share
// of its latency; a fully prewarmed request adds exactly zero.
func (c *Cache) CompileTime() time.Duration {
	if c == nil {
		return 0
	}
	return time.Duration(atomic.LoadInt64(&c.compileNS))
}

// Invalidate drops the entry for k (if present), so the next Get
// rebuilds it. Used by fault-driven re-plans: only the affected entry
// goes, everything else stays warm.
func (c *Cache) Invalidate(k Key) {
	if c == nil {
		return
	}
	sh := c.shard(k)
	sh.mu.Lock()
	if _, ok := sh.entries[k]; ok {
		delete(sh.entries, k)
		sh.invalidations++
	}
	sh.mu.Unlock()
}

// Len reports the live entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// Stats reports cumulative hit/miss/invalidation counts, summed across
// the map shards.
func (c *Cache) Stats() (hits, misses, invalidations int64) {
	if c == nil {
		return 0, 0, 0
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		invalidations += sh.invalidations
		sh.mu.Unlock()
	}
	return hits, misses, invalidations
}

// Job is one prewarm compilation unit: Compile must build — and thereby
// cache — every plan artifact one configuration needs. The plan package
// cannot depend on the frameworks that compile plans (they import it),
// so jobs carry opaque closures; internal/tflite enumerates the Table-I
// grid into jobs, internal/serve enumerates a serving config's.
type Job struct {
	// Compile builds the configuration's plans. Skipping an unsupported
	// combination by returning early is fine — it simply adds no entries.
	Compile func()
}

// Report summarizes one prewarm pass.
type Report struct {
	// Jobs is the number of configurations compiled.
	Jobs int
	// Entries is the number of cache entries the pass added (zero when
	// everything was already warm).
	Entries int
	// Wall is the pass's total host wall time.
	Wall time.Duration
	// Compile is the share of Wall spent inside plan builds — the
	// cold-start tax moved off the first request onto startup.
	Compile time.Duration
}

// String renders the report the way the -prewarm flags print it.
func (r Report) String() string {
	return fmt.Sprintf("compiled %d plan entries from %d configurations in %v (%v in plan builds)",
		r.Entries, r.Jobs, r.Wall.Round(time.Microsecond), r.Compile.Round(time.Microsecond))
}

// Prewarm runs every job against the cache and reports how many entries
// the pass added and what it cost. Running it at startup moves the
// first-request plan-compilation tax to load time; re-running it is a
// cheap no-op (all hits, zero entries added).
func (c *Cache) Prewarm(jobs []Job) Report {
	start := time.Now()
	before, compileBefore := c.Len(), c.CompileTime()
	for _, j := range jobs {
		j.Compile()
	}
	return Report{
		Jobs:    len(jobs),
		Entries: c.Len() - before,
		Wall:    time.Since(start),
		Compile: c.CompileTime() - compileBefore,
	}
}

// Segment is one contiguous op range [Start, End) in graph order,
// assigned either to the accelerator or to the CPU side of a plan.
// Index-based ranges (rather than op pointers) make the assignment
// shareable across stacks: every stack rebuilds the same graphs in the
// same order, but with fresh Op structs.
type Segment struct {
	Accel      bool
	Start, End int
}

// PartitionSegments greedily splits ops into maximal accelerator-
// supported runs — the assignment step both TFLite's delegate mechanism
// and NNAPI's partitioner perform.
func PartitionSegments(ops []*nn.Op, dt tensor.DType, supports func(*nn.Op, tensor.DType) bool) []Segment {
	var segs []Segment
	for i, op := range ops {
		accel := supports(op, dt)
		if n := len(segs); n > 0 && segs[n-1].Accel == accel {
			segs[n-1].End = i + 1
			continue
		}
		segs = append(segs, Segment{Accel: accel, Start: i, End: i + 1})
	}
	return segs
}

// OpCosts computes the per-op device time schedule for ops at precision
// dt on dev — the values a driver's execute loop would otherwise
// recompute every frame. Target-level factors (thread splits, delegate
// efficiency, per-op dispatch overhead) are applied at execution time,
// so one schedule per device serves every target on that device.
func OpCosts(ops []*nn.Op, dt tensor.DType, dev *soc.Device) []time.Duration {
	costs := make([]time.Duration, len(ops))
	for i, op := range ops {
		costs[i] = dev.TimeFor(op.Work(dt), dt)
	}
	return costs
}
