package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"aitax/internal/faults"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// commonFlags carries the values of the flags the subcommands share, so
// every subcommand registers, parses and validates them identically: the
// observability exports (-trace, -metrics), the deterministic fault plan
// (-faults) and the lab worker pool (-parallel, -progress). Fields whose
// flags a subcommand did not register keep their zero value (Parallel
// defaults to GOMAXPROCS only when registered).
type commonFlags struct {
	// Trace is the Chrome trace-event JSON output path ("" = off).
	Trace string
	// Metrics is the Prometheus-style metrics output path ("" = off).
	Metrics string
	// FaultSpec is the raw -faults plan; FaultPlan parses it.
	FaultSpec string
	// Parallel is the lab worker-pool size.
	Parallel int
	// Progress enables per-job completion reports on stderr.
	Progress bool
}

// sharedFlags selects which shared flags a subcommand registers.
type sharedFlags struct {
	Trace, Metrics, Faults, Parallel, Progress bool
}

// register adds the selected shared flags to fs with their canonical
// names, descriptions and defaults, and returns the struct their parsed
// values land in.
func register(fs *flag.FlagSet, o sharedFlags) *commonFlags {
	c := &commonFlags{}
	if o.Trace {
		fs.StringVar(&c.Trace, "trace",
			"", "write a Chrome trace-event JSON of the run to this path")
	}
	if o.Metrics {
		fs.StringVar(&c.Metrics, "metrics",
			"", "write Prometheus-style metrics of the run to this path")
	}
	if o.Faults {
		fs.StringVar(&c.FaultSpec, "faults",
			"", `deterministic fault plan, e.g. "rpc=0.1,timeout=0.05,init=1,seed=7" (see docs/FAULTS.md)`)
	}
	if o.Parallel {
		fs.IntVar(&c.Parallel, "parallel", runtime.GOMAXPROCS(0),
			"worker-pool size; output is byte-identical at any value")
	}
	if o.Progress {
		fs.BoolVar(&c.Progress, "progress",
			false, "report per-job completion on stderr")
	}
	return c
}

// FaultPlan parses the -faults spec. The empty string is the zero plan.
func (c *commonFlags) FaultPlan() (faults.Plan, error) { return faults.ParsePlan(c.FaultSpec) }

// newFlagSet returns the flag set of one subcommand, reporting parse
// errors and -h usage to stderr.
func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("aitax "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseDType resolves the -dtype vocabulary shared by every subcommand.
func parseDType(s string) (tensor.DType, error) {
	switch s {
	case "fp32", "float32":
		return tensor.Float32, nil
	case "int8", "uint8", "quant":
		return tensor.UInt8, nil
	default:
		return tensor.Float32, fmt.Errorf("unknown dtype %q (fp32|int8)", s)
	}
}

// parseDelegate resolves the -delegate vocabulary shared by every
// subcommand.
func parseDelegate(s string) (tflite.Delegate, error) {
	switch s {
	case "cpu":
		return tflite.DelegateCPU, nil
	case "gpu":
		return tflite.DelegateGPU, nil
	case "hexagon", "dsp":
		return tflite.DelegateHexagon, nil
	case "nnapi":
		return tflite.DelegateNNAPI, nil
	default:
		return tflite.DelegateCPU, fmt.Errorf("unknown delegate %q (cpu|gpu|hexagon|nnapi)", s)
	}
}

// writeFile creates path and streams write into it, closing the file
// and propagating the first error — the export idiom every subcommand
// uses for its output files.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
