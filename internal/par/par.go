// Package par is the deterministic row-tile scheduler the pixel kernels
// run on. It splits an index range [0, n) into at most Workers()
// contiguous tiles using static arithmetic partitioning — tile i of w is
// exactly [i*n/w, (i+1)*n/w) — and executes the tiles on a persistent
// worker pool. Because the partition is a pure function of (n, w) and
// every kernel writes only inside its own tile, the output bytes are
// identical at any worker count; parallelism changes wall-clock only.
//
// The dispatch path allocates nothing at steady state: tasks are
// interface values over structs the callers keep in a Spare, jobs
// travel by value through a buffered channel, and the per-call
// WaitGroup is recycled through a Spare. Tasks must not call For
// themselves (no nesting) — a kernel tile that blocked on the pool
// could deadlock it.
//
// The pool is sized from GOMAXPROCS at init. AITAX_KERNEL_WORKERS
// overrides it (AITAX_KERNEL_WORKERS=1 opts out of parallelism
// entirely); SetWorkers changes it at runtime (tests use this to prove
// cross-worker-count bit-exactness).
package par

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// Task is one tiled kernel invocation. Tile processes items [lo, hi) of
// the range handed to For; implementations must touch no state outside
// that tile (other than read-only inputs).
type Task interface {
	Tile(lo, hi int)
}

// maxWorkers bounds the fan-out width (and the pool size) so a
// misconfigured environment cannot spawn unbounded goroutines.
const maxWorkers = 64

// minGrain is the smallest tile worth dispatching: ranges shorter than
// minGrain*2 run inline. Purely a latency guard — it cannot affect
// results, only which goroutine computes them.
const minGrain = 16

type job struct {
	t      Task
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	width   atomic.Int32 // configured fan-out (>= 1)
	spawned atomic.Int32 // worker goroutines started so far

	poolMu sync.Mutex
	jobs   chan job // buffered dispatch queue

	wgPool Spare[sync.WaitGroup]
)

// Spare caches one *T between calls of a kernel: its per-call task, or
// For's WaitGroup. Unlike a sync.Pool it belongs to no P and no garbage
// collection empties it, so a warm caller gets its value back on
// whichever P it resumes and allocates nothing; a caller that runs
// while another holds the value allocates. The zero value is ready.
type Spare[T any] struct{ v atomic.Pointer[T] }

// Get returns the cached value, or a new one if there is none.
func (s *Spare[T]) Get() *T {
	if v := s.v.Swap(nil); v != nil {
		return v
	}
	return new(T)
}

// Put caches v for the next Get.
func (s *Spare[T]) Put(v *T) { s.v.Store(v) }

func init() {
	w := runtime.GOMAXPROCS(0)
	if s := os.Getenv("AITAX_KERNEL_WORKERS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v >= 1 {
			w = v
		}
	}
	width.Store(int32(clampWidth(w)))
	jobs = make(chan job, 4*maxWorkers)
}

func clampWidth(w int) int {
	if w < 1 {
		return 1
	}
	if w > maxWorkers {
		return maxWorkers
	}
	return w
}

// Workers reports the configured fan-out width.
func Workers() int { return int(width.Load()) }

// SetWorkers sets the fan-out width (clamped to [1, 64]) and returns the
// previous value, so tests can restore it with a deferred call. The
// partition — and therefore every kernel's output — is byte-identical at
// any width; only wall-clock changes.
func SetWorkers(n int) (prev int) {
	n = clampWidth(n)
	prev = int(width.Swap(int32(n)))
	ensureWorkers(n - 1)
	return prev
}

// ensureWorkers grows the persistent pool to at least n goroutines.
func ensureWorkers(n int) {
	if int(spawned.Load()) >= n {
		return
	}
	poolMu.Lock()
	for int(spawned.Load()) < n {
		spawned.Add(1)
		go worker()
	}
	poolMu.Unlock()
}

func worker() {
	for j := range jobs {
		j.t.Tile(j.lo, j.hi)
		j.wg.Done()
	}
}

// For runs t over [0, n), split into at most Workers() contiguous tiles
// of at least minGrain items each. The caller's goroutine always
// executes the first tile; the rest go to the pool. For returns once
// every tile has completed. n <= 0 is a no-op.
func For(n int, t Task) { ForGrain(n, minGrain, t) }

// ForGrain is For with an explicit minimum tile size, for kernels whose
// per-item cost is large enough that even a handful of items (PoseNet's
// 17 keypoint argmax scans, say) are worth spreading across the pool.
// grain < 1 is treated as 1.
func ForGrain(n, grain int, t Task) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := int(width.Load())
	if w > n/grain {
		w = n / grain
	}
	if w <= 1 {
		t.Tile(0, n)
		return
	}
	ensureWorkers(w - 1)
	wg := wgPool.Get()
	wg.Add(w - 1)
	for i := 1; i < w; i++ {
		jobs <- job{t: t, lo: i * n / w, hi: (i + 1) * n / w, wg: wg}
	}
	t.Tile(0, n/w)
	wg.Wait()
	wgPool.Put(wg)
}

// TileBounds returns tile i's [lo, hi) range of the w-way static
// partition of [0, n) — exported so tests can assert the exact contract
// kernels rely on.
func TileBounds(n, w, i int) (lo, hi int) { return i * n / w, (i + 1) * n / w }
