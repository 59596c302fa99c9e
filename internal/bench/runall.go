package bench

import (
	"context"
	"fmt"

	"aitax/internal/lab"
)

// RunExperimentsCtx is the sweep runner. It measures every distinct Run
// the experiments declare once, each as one job on a lab worker pool of
// the given size (<= 0 means GOMAXPROCS), then renders the experiments
// on the same pool, and returns their results in the order given —
// output rendered from the slice is byte-identical at any parallelism.
// onProgress, when set, sees every measurement and render job complete.
//
// A panicking or failing experiment becomes an error Result (its Notes
// carry a "setup failed" line that aitax validate and the bench tests
// flag; Err returns the error) instead of taking the run down.
// Cancelling ctx skips every job that has not started and returns the
// context's error alongside the partial results.
func RunExperimentsCtx(ctx context.Context, exps []Experiment, cfg Config, parallelism int, onProgress func(lab.JobResult)) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]*Result, len(exps))
	if cfg.Runs < 0 {
		for i, e := range exps {
			out[i] = errorResult(e, fmt.Errorf("bench: negative Runs %d (0 selects the default of 50)", cfg.Runs))
		}
		return out, ctx.Err()
	}
	cfg = cfg.Defaults()
	l := &lab.Lab{Parallelism: parallelism, OnProgress: onProgress}

	p := newPlanner()
	renders := make([]func() *Result, len(exps))
	for i, e := range exps {
		renders[i] = e.Plan(cfg, p)
	}
	// Runs only read their model, so one value per name serves them all.
	jobs := make([]lab.Job, len(p.runs))
	for i, r := range p.runs {
		r := r
		jobs[i] = lab.Job{ID: r.String(), Run: func(ctx context.Context) (any, error) {
			*p.samples[r] = measure(ctx, r, p.models[r.Model], cfg.Platform)
			return nil, nil
		}}
	}
	for i, res := range l.Run(ctx, jobs) {
		if res.Err != nil {
			p.samples[p.runs[i]].Err = res.Err
		}
	}

	jobs = make([]lab.Job, len(exps))
	for i, render := range renders {
		render := render
		jobs[i] = lab.Job{ID: exps[i].ID, Run: func(context.Context) (any, error) {
			return render(), nil
		}}
	}
	for i, res := range l.Run(ctx, jobs) {
		if res.Err != nil {
			out[i] = errorResult(exps[i], res.Err)
		} else {
			out[i] = res.Value.(*Result)
		}
	}
	return out, ctx.Err()
}

// RunAll regenerates every experiment in paper order across a worker
// pool of the given size (<= 0 means GOMAXPROCS). It is the library
// counterpart of `aitax experiments -run all -parallel N`.
func RunAll(cfg Config, parallelism int) []*Result {
	out, _ := RunExperimentsCtx(context.Background(), Experiments(), cfg, parallelism, nil)
	return out
}

// errorResult packages a failed experiment as a renderable Result whose
// note matches the "setup failed" convention the validation gate scans
// for.
func errorResult(e Experiment, err error) *Result {
	return &Result{
		ID:    e.ID,
		Title: e.Title,
		Notes: []string{fmt.Sprintf("setup failed: %v", err)},
		err:   err,
	}
}
