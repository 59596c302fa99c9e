package bench

import (
	"context"
	"fmt"

	"aitax/internal/lab"
)

// RunExperimentsCtx runs the given experiments across a lab worker pool
// of the given size (<= 0 means GOMAXPROCS) and returns their results in
// the order the experiments were given, regardless of completion order —
// output rendered from the slice is byte-identical at any parallelism.
//
// A panicking or failing experiment becomes an error Result (its Notes
// carry a "setup failed" line that aitax validate and the bench tests
// flag) instead of taking the run down. Cancelling ctx skips every
// experiment that has not started and returns the context's error
// alongside the partial results.
func RunExperimentsCtx(ctx context.Context, exps []Experiment, cfg Config, parallelism int) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	jobs := make([]lab.Job, len(exps))
	for i, e := range exps {
		e := e
		jobs[i] = lab.Job{
			ID: e.ID,
			Run: func(ctx context.Context) (any, error) {
				return e.RunCtx(ctx, cfg)
			},
		}
	}
	l := &lab.Lab{Parallelism: parallelism}
	results := l.Run(ctx, jobs)
	out := make([]*Result, len(results))
	for i, r := range results {
		switch {
		case r.Err != nil:
			out[i] = errorResult(exps[i], r.Err)
		default:
			out[i] = r.Value.(*Result)
		}
	}
	return out, ctx.Err()
}

// RunAll regenerates every experiment in paper order across a worker
// pool of the given size (<= 0 means GOMAXPROCS). It is the library
// counterpart of `aitax experiments -run all -parallel N`.
func RunAll(cfg Config, parallelism int) []*Result {
	out, _ := RunExperimentsCtx(context.Background(), Experiments(), cfg, parallelism)
	return out
}

// RunAllCtx is RunAll with cancellation.
func RunAllCtx(ctx context.Context, cfg Config, parallelism int) ([]*Result, error) {
	return RunExperimentsCtx(ctx, Experiments(), cfg, parallelism)
}

// errorResult packages a failed experiment as a renderable Result whose
// note matches the "setup failed" convention the validation gate scans
// for.
func errorResult(e Experiment, err error) *Result {
	return &Result{
		ID:    e.ID,
		Title: e.Title,
		Notes: []string{fmt.Sprintf("setup failed: %v", err)},
	}
}
