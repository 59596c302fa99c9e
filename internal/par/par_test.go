package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// countTask marks every index it is handed, atomically, so coverage and
// overlap can be checked after a For run from any number of goroutines.
type countTask struct {
	hits []atomic.Int32
	// tiles counts Tile invocations.
	tiles atomic.Int32
}

func (c *countTask) Tile(lo, hi int) {
	c.tiles.Add(1)
	for i := lo; i < hi; i++ {
		c.hits[i].Add(1)
	}
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	for _, n := range []int{0, 1, 7, 16, 31, 32, 100, 263169} {
		c := &countTask{hits: make([]atomic.Int32, n)}
		For(n, c)
		for i := range c.hits {
			if got := c.hits[i].Load(); got != 1 {
				t.Fatalf("n=%d: index %d processed %d times, want 1", n, i, got)
			}
		}
	}
}

func TestForGrainRunsSmallRangesInline(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	c := &countTask{hits: make([]atomic.Int32, minGrain*2-1)}
	For(len(c.hits), c)
	if got := c.tiles.Load(); got != 1 {
		t.Fatalf("range below 2*minGrain split into %d tiles, want 1 (inline)", got)
	}
	// With an explicit grain of 1, the same range fans out.
	c2 := &countTask{hits: make([]atomic.Int32, 8)}
	ForGrain(len(c2.hits), 1, c2)
	if got := c2.tiles.Load(); got != 8 {
		t.Fatalf("grain-1 fan-out produced %d tiles, want 8", got)
	}
	for i := range c2.hits {
		if c2.hits[i].Load() != 1 {
			t.Fatalf("grain-1 index %d not covered exactly once", i)
		}
	}
}

func TestTileBoundsPartitionIsExact(t *testing.T) {
	for _, n := range []int{1, 2, 17, 224, 513, 263169} {
		for w := 1; w <= 9; w++ {
			prev := 0
			for i := 0; i < w; i++ {
				lo, hi := TileBounds(n, w, i)
				if lo != prev {
					t.Fatalf("n=%d w=%d tile %d starts at %d, want %d", n, w, i, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d w=%d tile %d is inverted", n, w, i)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d w=%d tiles end at %d, want %d", n, w, prev, n)
			}
		}
	}
}

func TestSetWorkersClampsAndRestores(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	if SetWorkers(3); Workers() != 3 {
		t.Fatalf("Workers = %d after SetWorkers(3)", Workers())
	}
	if SetWorkers(0); Workers() != 1 {
		t.Fatalf("Workers = %d after SetWorkers(0), want clamp to 1", Workers())
	}
	if SetWorkers(1 << 20); Workers() != maxWorkers {
		t.Fatalf("Workers = %d after huge SetWorkers, want clamp to %d", Workers(), maxWorkers)
	}
}

func TestConcurrentForCallsDoNotInterfere(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	const n = 4096
	done := make(chan *countTask)
	for g := 0; g < 8; g++ {
		go func() {
			c := &countTask{hits: make([]atomic.Int32, n)}
			for rep := 0; rep < 10; rep++ {
				for i := range c.hits {
					c.hits[i].Store(0)
				}
				For(n, c)
				for i := range c.hits {
					if c.hits[i].Load() != 1 {
						panic("index not covered exactly once")
					}
				}
			}
			done <- c
		}()
	}
	for g := 0; g < 8; g++ {
		<-done
	}
}

// TestSpareSurvivesGC pins why the kernels keep their per-call values
// in a Spare rather than a sync.Pool: garbage collection and a move to
// another P both hide a sync.Pool's value from the next Get, so a warm
// kernel could allocate in a one-iteration benchmark run.
func TestSpareSurvivesGC(t *testing.T) {
	var s Spare[countTask]
	v := s.Get()
	s.Put(v)
	runtime.GC()
	runtime.GC()
	if s.Get() != v {
		t.Fatal("the spare value did not survive two garbage collections")
	}
	if s.Get() == v {
		t.Fatal("a value already handed out was handed out again")
	}
}

func BenchmarkForDispatch(b *testing.B) {
	defer SetWorkers(SetWorkers(4))
	c := &countTask{hits: make([]atomic.Int32, 1024)}
	// Warm up: the first call spins up the worker pool, and the rest
	// fill every P's sudog cache. Each worker parks on its channel
	// receive once per call, and the runtime allocates a 96-byte sudog
	// for a park on a P whose cache is empty. The GC that testing runs
	// before the benchmark empties the central cache, so without this
	// a single measured iteration at -benchtime=1x can count 1-2 allocs.
	for i := 0; i < 1000; i++ {
		For(len(c.hits), c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		For(len(c.hits), c)
	}
}
