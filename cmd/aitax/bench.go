package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"aitax"
	"aitax/internal/benchfmt"
)

// runBench is aitax bench, the analogue of the TFLite command-line
// benchmark utility: it runs one model through one delegate for N
// measured iterations and prints per-stage means and the latency
// distribution. It is also the repo's benchmark-report tool: -parse
// turns `go test -bench -benchmem` output into a BENCH_<date>.json
// report, and -compare gates two reports against each other.
//
//	aitax bench -model "MobileNet 1.0 v1" -dtype int8 -delegate nnapi -runs 100
//	aitax bench -list
//	aitax bench -parse bench_output.txt -out BENCH_2026-08-05.json
//	aitax bench -compare old.json new.json          # exit 1 on >10% regression
//	aitax bench -compare -wall old.json new.json    # wall gate (multi-iteration runs)
func runBench(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("bench", stderr)
	model := fs.String("model", "MobileNet 1.0 v1", "Table-I model name")
	dtype := fs.String("dtype", "fp32", "precision: fp32 | int8")
	delegate := fs.String("delegate", "cpu", "delegate: cpu | gpu | hexagon | nnapi")
	runs := fs.Int("runs", 100, "measured iterations (paper: 500)")
	platform := fs.String("platform", "Google Pixel 3", "platform (Table II)")
	seed := fs.Uint64("seed", 42, "random seed (0 is a valid seed)")
	list := fs.Bool("list", false, "list model names and exit")
	stdlib := fs.String("stdlib", "libc++", "C++ standard library: libc++ | libstdc++ (flips random-gen cost, §IV-A)")
	parse := fs.String("parse", "", "parse `go test -bench` output from this file (\"-\" for stdin) into a JSON report")
	out := fs.String("out", "", "with -parse: write the JSON report here (default stdout)")
	date := fs.String("date", "", "with -parse: report date (default today, YYYY-MM-DD)")
	compare := fs.Bool("compare", false, "compare two JSON reports (old.json new.json); exit 1 on regression")
	threshold := fs.Float64("threshold", 0.10, "with -compare: allowed fractional growth in ns/op or allocs/op")
	allocsOnly := fs.Bool("allocs-only", false, "with -compare: gate only zero-alloc benchmarks (baseline 0 allocs/op must stay 0; for 1-iteration smoke runs)")
	wall := fs.Bool("wall", false, "with -compare: wall-time gate for multi-iteration runs (skip 1-iteration entries, apply -ns-floor; allocs gated too)")
	nsFloor := fs.Float64("ns-floor", 5000, "with -compare -wall: ignore ns/op regressions on benchmarks faster than this (noise floor, ns/op)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, n := range aitax.ModelNames() {
			fmt.Fprintln(stdout, n)
		}
		return 0
	}
	if *parse != "" {
		if err := runParse(*parse, *out, *date, stdout); err != nil {
			return fail(stderr, err)
		}
		return 0
	}
	if *compare {
		if fs.NArg() != 2 {
			return fail(stderr, fmt.Errorf("-compare needs exactly two arguments: old.json new.json"))
		}
		if *allocsOnly && *wall {
			return fail(stderr, fmt.Errorf("-allocs-only and -wall are mutually exclusive compare modes"))
		}
		ok, err := runCompare(fs.Arg(0), fs.Arg(1), *threshold, *allocsOnly, *wall, *nsFloor, stdout)
		if err != nil {
			return fail(stderr, err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	dt, err := parseDType(*dtype)
	if err != nil {
		return fail(stderr, err)
	}
	d, err := parseDelegate(*delegate)
	if err != nil {
		return fail(stderr, err)
	}
	p, err := aitax.PlatformByName(*platform)
	if err != nil {
		return fail(stderr, err)
	}

	lib := aitax.LibCXX
	if *stdlib == "libstdc++" {
		lib = aitax.LibStdCXX
	}
	samples, err := aitax.MeasureBenchmark(aitax.AppOptions{
		Model: *model, DType: dt, Delegate: d,
		Frames: *runs, Platform: p, Seed: *seed, SeedSet: true, StdLib: lib,
	})
	if err != nil {
		return fail(stderr, err)
	}

	b := aitax.TaxBreakdown(samples)
	fmt.Fprintf(stdout, "model=%q dtype=%s delegate=%s platform=%q runs=%d\n",
		*model, dt, d, p.Name, len(samples))
	fmt.Fprintf(stdout, "  input generation : %8.3f ms\n", ms(b.Mean.Stage[aitax.StageCapture]))
	fmt.Fprintf(stdout, "  pre-processing   : %8.3f ms\n", ms(b.Mean.Stage[aitax.StagePre]))
	fmt.Fprintf(stdout, "  inference        : %8.3f ms\n", ms(b.Mean.Stage[aitax.StageInference]))
	fmt.Fprintf(stdout, "  total            : %8.3f ms\n", ms(b.Mean.Total))
	fmt.Fprintf(stdout, "  distribution     : %s\n", b.E2E)
	return 0
}

// runParse converts `go test -bench` text output into a JSON report,
// written to out or, when out is empty, to stdout.
func runParse(in, out, date string, stdout io.Writer) error {
	var src io.Reader = os.Stdin
	if in != "-" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	rep, err := benchfmt.Parse(src)
	if err != nil {
		return err
	}
	if len(rep.Entries) == 0 {
		return fmt.Errorf("no benchmark result lines found in %s", in)
	}
	if date == "" {
		date = time.Now().Format("2006-01-02")
	}
	rep.Date = date
	if out == "" {
		return rep.Write(stdout)
	}
	return writeFile(out, rep.Write)
}

// runCompare gates a new report against an old one; ok=false means at
// least one benchmark regressed beyond the threshold. With allocsOnly,
// only a zero-alloc benchmark gaining allocations fails the gate (the
// mode CI's 1-iteration smoke run uses, where wall time and warm-up
// alloc counts are noise but 0 → n allocs is exact). With wall, the
// multi-iteration wall-time gate runs instead: 1-iteration entries are
// skipped, ns/op below nsFloor is reported but not judged, and allocs
// growth is gated everywhere (exact at steady state).
func runCompare(oldPath, newPath string, threshold float64, allocsOnly, wall bool, nsFloor float64, stdout io.Writer) (bool, error) {
	readReport := func(p string) (*benchfmt.Report, error) {
		f, err := os.Open(p)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return benchfmt.Read(f)
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	var c *benchfmt.Comparison
	mode := ""
	switch {
	case allocsOnly:
		c = benchfmt.CompareAllocs(oldRep, newRep, threshold)
		mode = " (allocs only)"
	case wall:
		c = benchfmt.CompareWall(oldRep, newRep, threshold, nsFloor)
		mode = fmt.Sprintf(" (wall gate, noise floor %.0f ns/op)", nsFloor)
	default:
		c = benchfmt.Compare(oldRep, newRep, threshold)
	}
	fmt.Fprintf(stdout, "comparing %s (%s) -> %s (%s), threshold %.0f%%%s\n",
		oldPath, oldRep.Date, newPath, newRep.Date, threshold*100, mode)
	c.Render(stdout)
	if regs := c.Regressions(); len(regs) > 0 {
		fmt.Fprintf(stdout, "FAIL: %d benchmark(s) regressed beyond %.0f%%\n", len(regs), threshold*100)
		return false, nil
	}
	fmt.Fprintln(stdout, "OK: no regressions beyond threshold")
	return true, nil
}
