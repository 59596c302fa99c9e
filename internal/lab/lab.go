// Package lab is a concurrent measurement-job engine: it fans a set of
// independent jobs (experiments, sweep points, validation runs) across a
// bounded goroutine worker pool and merges their results back in
// submission order, so that a run at any parallelism produces output
// byte-identical to a sequential run.
//
// Each simulated stack in this repository is single-threaded and fully
// deterministic, but the stacks themselves are independent — the paper's
// evaluation is ~15 table/figure regenerations that never share state.
// The lab exploits exactly that independence and nothing more:
//
//   - jobs run concurrently, results are emitted in submission order
//     (the deterministic merge);
//   - a panicking job becomes an error JobResult, never a crashed run;
//   - every job is accounted with its host wall-clock time;
//   - cancellation via context.Context stops unstarted jobs immediately
//     (running jobs observe the context through their own Run func).
package lab

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"aitax/internal/sim"
)

// Job is one unit of measurement work. Jobs must be independent of each
// other: the lab runs them in unspecified order and concurrently.
type Job struct {
	// ID labels the job in results and progress reports.
	ID string
	// Run performs the work. The context carries cancellation. The
	// returned value lands in JobResult.Value verbatim.
	Run func(ctx context.Context) (any, error)
}

// JobResult is the outcome of one job.
type JobResult struct {
	// Index is the job's position in the submitted slice; results are
	// always merged back in Index order.
	Index int
	// ID echoes Job.ID.
	ID string
	// Value is whatever Job.Run returned (nil on error or panic).
	Value any
	// Err is the job's error. A recovered panic surfaces as a
	// *PanicError; a job skipped due to cancellation carries the
	// context's error.
	Err error
	// Wall is the host wall-clock time the job consumed.
	Wall time.Duration
}

// PanicError is the error recorded when a job panics. The panic is
// confined to the job: the pool and all other jobs keep running.
type PanicError struct {
	// Value is the value the job panicked with.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (p *PanicError) Error() string { return fmt.Sprintf("job panicked: %v", p.Value) }

// drainBatch is how many events Drain fires between context checks.
const drainBatch = 4096

// Drain runs eng until its queue is empty, checking ctx between batches
// of drainBatch events so a cancelled measurement stops promptly.
// Unlike sim.Engine.Run it does not enforce eng.Limit.
func Drain(ctx context.Context, eng *sim.Engine) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		for i := 0; i < drainBatch; i++ {
			if !eng.Step() {
				return nil
			}
		}
	}
}

// Lab runs jobs across a bounded worker pool. The zero value is ready to
// use and runs GOMAXPROCS jobs at a time.
type Lab struct {
	// Parallelism bounds the worker pool; <= 0 means GOMAXPROCS.
	// Parallelism 1, or a single job, runs the jobs in order on the
	// calling goroutine. A fresh worker goroutine per sweep of one
	// experiment cost the paper-scale sweep about 10% more CPU.
	Parallelism int
	// OnProgress, when set, is called once per job as it completes — in
	// completion order, not submission order — for progress reporting.
	// Calls are serialized; the callback need not lock.
	OnProgress func(JobResult)
}

// workers resolves the pool size for n jobs.
func (l *Lab) workers(n int) int {
	p := l.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// Run executes the jobs and returns their results in submission order,
// regardless of the order they completed in. A nil ctx means
// context.Background().
func (l *Lab) Run(ctx context.Context, jobs []Job) []JobResult {
	return l.RunEmit(ctx, jobs, nil)
}

// RunEmit is Run with streaming: emit is invoked in strict submission
// order as soon as each result's predecessors have all completed — the
// deterministic merge. Writing output from emit therefore yields
// byte-identical streams at any parallelism. Calls to emit are
// serialized. A nil emit makes RunEmit equivalent to Run.
func (l *Lab) RunEmit(ctx context.Context, jobs []Job, emit func(JobResult)) []JobResult {
	if ctx == nil {
		ctx = context.Background()
	}
	n := len(jobs)
	results := make([]JobResult, n)
	if n == 0 {
		return results
	}

	var (
		mu   sync.Mutex // guards results, done, next, and both callbacks
		done = make([]bool, n)
		next int
	)
	complete := func(r JobResult) {
		mu.Lock()
		defer mu.Unlock()
		results[r.Index] = r
		done[r.Index] = true
		if l.OnProgress != nil {
			l.OnProgress(r)
		}
		if emit != nil {
			for next < n && done[next] {
				emit(results[next])
				next++
			}
		}
	}

	if l.workers(n) == 1 {
		for i := range jobs {
			complete(l.runOne(ctx, jobs[i], i))
		}
		return results
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < l.workers(n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				complete(l.runOne(ctx, jobs[i], i))
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// runOne executes a single job with panic recovery and accounting.
func (l *Lab) runOne(ctx context.Context, j Job, i int) (res JobResult) {
	res = JobResult{Index: i, ID: j.ID}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	start := time.Now()
	defer func() {
		res.Wall = time.Since(start)
		if r := recover(); r != nil {
			res.Value = nil
			res.Err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	res.Value, res.Err = j.Run(ctx)
	return res
}
