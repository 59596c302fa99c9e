package plan

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aitax/internal/models"
	"aitax/internal/nn"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

func testKey(variant int) Key {
	return Key{
		Kind:     "test",
		Model:    "MobileNet 1.0 v1",
		DType:    tensor.Float32,
		Scope:    "gpu",
		Platform: "Google Pixel 3",
		Variant:  variant,
	}
}

// TestGetBuildsOnce pins the cache's contract: one build per entry
// lifetime, every later Get a hit returning the same value.
func TestGetBuildsOnce(t *testing.T) {
	c := New()
	builds := 0
	build := func() any { builds++; return []int{1, 2, 3} }

	v1 := c.Get(testKey(0), build)
	v2 := c.Get(testKey(0), build)
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	if &v1.([]int)[0] != &v2.([]int)[0] {
		t.Fatal("second Get returned a different value, want the cached one")
	}
	if hits, misses, inv := c.Stats(); hits != 1 || misses != 1 || inv != 0 {
		t.Fatalf("stats = (%d hits, %d misses, %d invalidations), want (1, 1, 0)", hits, misses, inv)
	}

	// A different Variant is a different entry.
	c.Get(testKey(1), build)
	if builds != 2 {
		t.Fatalf("distinct key reused an entry: %d builds, want 2", builds)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestInvalidate pins that dropping an entry forces exactly one rebuild
// and that invalidating an absent key is a counted no-op... only present
// entries bump the invalidation counter.
func TestInvalidate(t *testing.T) {
	c := New()
	builds := 0
	build := func() any { builds++; return builds }

	c.Get(testKey(0), build)
	c.Invalidate(testKey(0))
	c.Invalidate(testKey(0)) // absent now: must not double-count
	if got := c.Get(testKey(0), build).(int); got != 2 {
		t.Fatalf("rebuild returned %d, want 2", got)
	}
	if builds != 2 {
		t.Fatalf("build ran %d times after invalidate, want 2", builds)
	}
	if _, _, inv := c.Stats(); inv != 1 {
		t.Fatalf("invalidations = %d, want 1 (absent key must not count)", inv)
	}
}

// TestNilCache pins that a nil *Cache degrades to always-build: every
// accessor is safe and Get simply runs the build function.
func TestNilCache(t *testing.T) {
	var c *Cache
	builds := 0
	for i := 0; i < 3; i++ {
		c.Get(testKey(0), func() any { builds++; return nil })
	}
	if builds != 3 {
		t.Fatalf("nil cache ran build %d times, want 3", builds)
	}
	c.Invalidate(testKey(0))
	if c.Len() != 0 {
		t.Fatal("nil cache Len != 0")
	}
	if h, m, i := c.Stats(); h != 0 || m != 0 || i != 0 {
		t.Fatal("nil cache Stats != zero")
	}
}

// TestGetConcurrent hammers one key from many goroutines while another
// set of goroutines invalidates it: under -race this doubles as the
// cache's data-race proof, and the build counter bounds stay exact —
// every returned value is complete (never a half-built entry) and the
// build count never exceeds invalidations+1 generations.
func TestGetConcurrent(t *testing.T) {
	c := New()
	var builds atomic.Int64
	build := func() any {
		builds.Add(1)
		// A non-trivial build widens the once window.
		s := make([]time.Duration, 64)
		for i := range s {
			s[i] = time.Duration(i)
		}
		return s
	}

	const getters, invalidators, rounds = 8, 2, 200
	var wg sync.WaitGroup
	for g := 0; g < getters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s := c.Get(testKey(0), build).([]time.Duration)
				if len(s) != 64 || s[63] != 63 {
					t.Error("observed a partially built entry")
					return
				}
			}
		}()
	}
	var invs atomic.Int64
	for g := 0; g < invalidators; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Invalidate(testKey(0))
				invs.Add(1)
			}
		}()
	}
	wg.Wait()
	if b := builds.Load(); b < 1 || b > invs.Load()+1 {
		t.Fatalf("builds = %d, want in [1, %d]", b, invs.Load()+1)
	}
}

// TestPartitionSegments pins the greedy maximal-run assignment on a
// hand-made support pattern.
func TestPartitionSegments(t *testing.T) {
	m, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		t.Fatal(err)
	}
	ops := m.Graph.Ops()
	if len(ops) < 8 {
		t.Fatalf("graph too small for the test: %d ops", len(ops))
	}

	// Support everything: one accel segment covering the whole graph.
	segs := PartitionSegments(ops, tensor.Float32, func(*nn.Op, tensor.DType) bool { return true })
	if len(segs) != 1 || !segs[0].Accel || segs[0].Start != 0 || segs[0].End != len(ops) {
		t.Fatalf("all-supported: got %+v", segs)
	}

	// Support nothing: one CPU segment.
	segs = PartitionSegments(ops, tensor.Float32, func(*nn.Op, tensor.DType) bool { return false })
	if len(segs) != 1 || segs[0].Accel || segs[0].End != len(ops) {
		t.Fatalf("none-supported: got %+v", segs)
	}

	// Alternate in blocks of 3: runs must be maximal and cover [0, n).
	segs = PartitionSegments(ops, tensor.Float32, func(op *nn.Op, _ tensor.DType) bool {
		for i, o := range ops {
			if o == op {
				return (i/3)%2 == 0
			}
		}
		return false
	})
	next := 0
	for i, s := range segs {
		if s.Start != next {
			t.Fatalf("segment %d starts at %d, want %d (gap or overlap)", i, s.Start, next)
		}
		if s.End <= s.Start {
			t.Fatalf("segment %d empty: %+v", i, s)
		}
		if i > 0 && segs[i-1].Accel == s.Accel {
			t.Fatalf("segments %d and %d share assignment %v: runs not maximal", i-1, i, s.Accel)
		}
		next = s.End
	}
	if next != len(ops) {
		t.Fatalf("segments cover [0, %d), want [0, %d)", next, len(ops))
	}

	if segs := PartitionSegments(nil, tensor.Float32, func(*nn.Op, tensor.DType) bool { return true }); segs != nil {
		t.Fatalf("empty ops produced segments: %+v", segs)
	}
}

// TestOpCostsMatchesDevice pins that the cached schedule is exactly the
// per-op recomputation it replaces — the byte-identity invariant the
// whole cache rests on.
func TestOpCostsMatchesDevice(t *testing.T) {
	m, err := models.ByName("Inception v3")
	if err != nil {
		t.Fatal(err)
	}
	dev := &soc.Pixel3().GPU
	for _, dt := range []tensor.DType{tensor.Float32, tensor.UInt8} {
		costs := OpCosts(m.Graph.Ops(), dt, dev)
		if len(costs) != m.Graph.NumOps() {
			t.Fatalf("%v: %d costs for %d ops", dt, len(costs), m.Graph.NumOps())
		}
		for i, op := range m.Graph.Ops() {
			if want := dev.TimeFor(op.Work(dt), dt); costs[i] != want {
				t.Fatalf("%v op %d: cached %v, recomputed %v", dt, i, costs[i], want)
			}
		}
	}
}

// TestPrewarmPricesThePass pins the prewarm contract: the report counts
// jobs and entries added, prices the compile share, and re-running the
// same jobs is an all-hit no-op that adds no entries and no compile
// time — the cold-start tax is paid exactly once.
func TestPrewarmPricesThePass(t *testing.T) {
	c := New()
	build := func() any { time.Sleep(200 * time.Microsecond); return 1 }
	jobs := []Job{
		{Compile: func() { c.Get(testKey(0), build) }},
		{Compile: func() { c.Get(testKey(1), build) }},
		{Compile: func() {}}, // skipped combo: no entries
	}
	rep := c.Prewarm(jobs)
	if rep.Jobs != 3 || rep.Entries != 2 {
		t.Fatalf("report = %d jobs, %d entries, want 3 jobs, 2 entries", rep.Jobs, rep.Entries)
	}
	if rep.Compile <= 0 || rep.Wall < rep.Compile {
		t.Fatalf("report times wall=%v compile=%v, want 0 < compile <= wall", rep.Wall, rep.Compile)
	}
	again := c.Prewarm(jobs)
	if again.Entries != 0 || again.Compile != 0 {
		t.Fatalf("second pass added %d entries, %v compile, want a free no-op", again.Entries, again.Compile)
	}
}

// TestCompileTimeIsolatesBuildCost pins CompileTime deltas as the
// plan-compilation share of a request: a miss adds build time, a hit
// adds exactly zero.
func TestCompileTimeIsolatesBuildCost(t *testing.T) {
	c := New()
	build := func() any { time.Sleep(200 * time.Microsecond); return 1 }
	before := c.CompileTime()
	c.Get(testKey(0), build)
	afterMiss := c.CompileTime()
	if afterMiss-before < 200*time.Microsecond {
		t.Fatalf("miss added %v compile time, want at least the build's sleep", afterMiss-before)
	}
	c.Get(testKey(0), build)
	if c.CompileTime() != afterMiss {
		t.Fatalf("hit added %v compile time, want zero", c.CompileTime()-afterMiss)
	}
	if (*Cache)(nil).CompileTime() != 0 {
		t.Fatal("nil cache must report zero compile time")
	}
}
