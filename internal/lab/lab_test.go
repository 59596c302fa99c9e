package lab

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aitax/internal/sim"
)

// staggeredJobs builds n jobs whose completion order under a concurrent
// pool is scrambled (later jobs finish first) but whose values are pure
// functions of their index.
func staggeredJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{
			ID: fmt.Sprintf("job%02d", i),
			Run: func(ctx context.Context) (any, error) {
				// Earlier jobs sleep longer so completion order inverts.
				time.Sleep(time.Duration(n-i) * time.Millisecond)
				return i * i, nil
			},
		}
	}
	return jobs
}

func TestResultsInSubmissionOrder(t *testing.T) {
	jobs := staggeredJobs(12)
	for _, par := range []int{1, 4, 12} {
		l := &Lab{Parallelism: par}
		rs := l.Run(context.Background(), jobs)
		if len(rs) != 12 {
			t.Fatalf("parallel %d: %d results", par, len(rs))
		}
		for i, r := range rs {
			if r.Index != i || r.ID != fmt.Sprintf("job%02d", i) || r.Value != i*i {
				t.Fatalf("parallel %d: result %d = %+v", par, i, r)
			}
			if r.Err != nil {
				t.Fatalf("parallel %d: job %d failed: %v", par, i, r.Err)
			}
			if r.Wall <= 0 {
				t.Fatalf("parallel %d: job %d has no wall-clock accounting", par, i)
			}
		}
	}
}

func TestDeterministicMergeAcrossParallelism(t *testing.T) {
	render := func(par int) string {
		var b strings.Builder
		l := &Lab{Parallelism: par}
		l.RunEmit(context.Background(), staggeredJobs(10), func(r JobResult) {
			fmt.Fprintf(&b, "%s=%v\n", r.ID, r.Value)
		})
		return b.String()
	}
	seq := render(1)
	for _, par := range []int{2, 8} {
		if got := render(par); got != seq {
			t.Fatalf("parallel %d emitted\n%s\nwant (sequential)\n%s", par, got, seq)
		}
	}
}

func TestEmitOrderDespiteInvertedCompletion(t *testing.T) {
	// Job 0 blocks until job 1 has finished, so completion order is
	// provably 1 then 0 — emission must still be 0 then 1.
	oneDone := make(chan struct{})
	jobs := []Job{
		{ID: "a", Run: func(ctx context.Context) (any, error) {
			<-oneDone
			return "a", nil
		}},
		{ID: "b", Run: func(ctx context.Context) (any, error) {
			defer close(oneDone)
			return "b", nil
		}},
	}
	var emitted []string
	var completed []string
	l := &Lab{
		Parallelism: 2,
		OnProgress:  func(r JobResult) { completed = append(completed, r.ID) },
	}
	l.RunEmit(context.Background(), jobs, func(r JobResult) {
		emitted = append(emitted, r.ID)
	})
	if got := strings.Join(completed, ","); got != "b,a" {
		t.Fatalf("completion order = %s, want b,a", got)
	}
	if got := strings.Join(emitted, ","); got != "a,b" {
		t.Fatalf("emit order = %s, want a,b", got)
	}
}

func TestPanicIsolation(t *testing.T) {
	jobs := []Job{
		{ID: "ok1", Run: func(ctx context.Context) (any, error) { return 1, nil }},
		{ID: "boom", Run: func(ctx context.Context) (any, error) { panic("kaboom") }},
		{ID: "ok2", Run: func(ctx context.Context) (any, error) { return 2, nil }},
	}
	l := &Lab{Parallelism: 3}
	rs := l.Run(context.Background(), jobs)
	if rs[0].Err != nil || rs[0].Value != 1 || rs[2].Err != nil || rs[2].Value != 2 {
		t.Fatalf("healthy jobs disturbed: %+v", rs)
	}
	var pe *PanicError
	if !errors.As(rs[1].Err, &pe) {
		t.Fatalf("panic err = %v, want *PanicError", rs[1].Err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Fatalf("panic not captured: %+v", pe)
	}
	if rs[1].Value != nil {
		t.Fatalf("panicked job has a value: %v", rs[1].Value)
	}
	if !strings.Contains(rs[1].Err.Error(), "kaboom") {
		t.Fatalf("error message hides panic: %v", rs[1].Err)
	}
}

func TestNilRunIsAnErrorResultNotACrash(t *testing.T) {
	l := &Lab{Parallelism: 1}
	rs := l.Run(context.Background(), []Job{{ID: "nil"}})
	var pe *PanicError
	if !errors.As(rs[0].Err, &pe) {
		t.Fatalf("nil Run err = %v, want *PanicError", rs[0].Err)
	}
}

func TestCancellationSkipsUnstartedJobs(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran atomic.Int32
	jobs := make([]Job, 8)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			ID: fmt.Sprintf("j%d", i),
			Run: func(ctx context.Context) (any, error) {
				ran.Add(1)
				if i == 0 {
					cancel() // first job cancels the rest
				}
				return i, nil
			},
		}
	}
	l := &Lab{Parallelism: 1}
	rs := l.Run(ctx, jobs)
	if got := ran.Load(); got != 1 {
		t.Fatalf("%d jobs ran after cancellation, want 1", got)
	}
	if rs[0].Err != nil || rs[0].Value != 0 {
		t.Fatalf("first job = %+v", rs[0])
	}
	for _, r := range rs[1:] {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("skipped job %s err = %v, want context.Canceled", r.ID, r.Err)
		}
	}
}

func TestErrorsPassThrough(t *testing.T) {
	sentinel := errors.New("measurement failed")
	l := &Lab{}
	rs := l.Run(context.Background(), []Job{
		{ID: "bad", Run: func(ctx context.Context) (any, error) { return nil, sentinel }},
	})
	if !errors.Is(rs[0].Err, sentinel) {
		t.Fatalf("err = %v", rs[0].Err)
	}
}

func TestZeroJobsAndDefaults(t *testing.T) {
	l := &Lab{}
	if rs := l.Run(nil, nil); len(rs) != 0 {
		t.Fatalf("results = %v", rs)
	}
	if got := l.workers(100); got < 1 {
		t.Fatalf("default workers = %d", got)
	}
	if got := (&Lab{Parallelism: 16}).workers(3); got != 3 {
		t.Fatalf("workers capped = %d, want 3", got)
	}
}

// ticker schedules n self-rescheduling events 1µs apart on eng,
// calling at(i) from inside event i.
func ticker(eng *sim.Engine, n int, at func(i int)) {
	var tick func(i int)
	tick = func(i int) {
		at(i)
		if i+1 < n {
			eng.After(time.Microsecond, func() { tick(i + 1) })
		}
	}
	eng.After(time.Microsecond, func() { tick(0) })
}

func TestDrainCancelsWithinOneBatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	eng := sim.NewEngine()
	const cancelAt = 10_000
	fired := 0
	// The stream outlives the cancel by several batches, so a Drain that
	// ignored ctx would return nil rather than hang.
	ticker(eng, cancelAt+4*drainBatch, func(i int) {
		fired++
		if i == cancelAt {
			cancel()
		}
	})
	if err := Drain(ctx, eng); !errors.Is(err, context.Canceled) {
		t.Fatalf("Drain = %v, want context.Canceled", err)
	}
	if over := fired - (cancelAt + 1); over < 0 || over >= drainBatch {
		t.Fatalf("%d events fired after the cancel, want fewer than one %d-event batch", over, drainBatch)
	}
}

func TestDrainOutsideJobIsPlainDrain(t *testing.T) {
	const n = drainBatch + 17
	drained, ran := sim.NewEngine(), sim.NewEngine()
	var got, want []sim.Time
	ticker(drained, n, func(int) { got = append(got, drained.Now()) })
	ticker(ran, n, func(int) { want = append(want, ran.Now()) })
	if err := Drain(context.Background(), drained); err != nil {
		t.Fatal(err)
	}
	end := ran.Run()
	if drained.Now() != end || drained.Pending() != 0 || len(got) != n || !slices.Equal(got, want) {
		t.Fatalf("Drain ended at %v with %d pending after %d events; Run ended at %v after %d",
			drained.Now(), drained.Pending(), len(got), end, len(want))
	}
}
