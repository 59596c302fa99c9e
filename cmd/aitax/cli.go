package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"aitax"
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

// runFlags are the flags that name one measured run, bound once for
// every subcommand: -platform and -seed everywhere, -model, -dtype and
// -delegate where a command measures a model, and -bg/-bgdelegate
// where it runs background tenants. Flags a subcommand did not bind
// stay nil.
type runFlags struct {
	model, dtype, delegate, platform, bgDelegate *string
	seed                                         *uint64
	bg                                           *int
}

// bindPlatform registers -platform and -seed on fs.
func bindPlatform(fs *flag.FlagSet) *runFlags {
	return &runFlags{
		platform: fs.String("platform", "Google Pixel 3", "platform name or chipset (Table II)"),
		seed:     fs.Uint64("seed", 42, "random seed (0 is a valid seed)"),
	}
}

// bindRun registers -platform, -seed, and -model, -dtype and -delegate
// with the subcommand's defaults on fs, plus -bg and -bgdelegate when
// bg is set.
func bindRun(fs *flag.FlagSet, model, dtype, delegate string, bg bool) *runFlags {
	f := bindPlatform(fs)
	f.model = fs.String("model", model, "Table-I model name (aliases like MobileNetV1 work)")
	f.dtype = fs.String("dtype", dtype, "precision: fp32 | int8")
	f.delegate = fs.String("delegate", delegate, "delegate: cpu | gpu | hexagon | nnapi")
	if bg {
		f.bg = fs.Int("bg", 0, "background inference jobs (multi-tenancy)")
		f.bgDelegate = fs.String("bgdelegate", "hexagon", "background delegate")
	}
	return f
}

// options parses the flags bindRun registered into the run's
// AppOptions; the seed is always explicit.
func (f *runFlags) options() (aitax.AppOptions, error) {
	o := aitax.AppOptions{Model: *f.model, Seed: *f.seed, SeedSet: true}
	var err error
	if o.DType, err = parseDType(*f.dtype); err != nil {
		return o, err
	}
	if o.Delegate, err = parseDelegate(*f.delegate); err != nil {
		return o, err
	}
	if f.bg != nil {
		o.BackgroundJobs = *f.bg
		if o.BackgroundDelegate, err = parseDelegate(*f.bgDelegate); err != nil {
			return o, err
		}
	}
	o.Platform, err = f.soc()
	return o, err
}

// soc resolves -platform. An unknown name's error lists the catalog.
func (f *runFlags) soc() (*aitax.SoC, error) {
	p, err := aitax.PlatformByName(*f.platform)
	if err != nil {
		var have []string
		for _, p := range aitax.Platforms() {
			have = append(have, fmt.Sprintf("%s (%s)", p.Name, p.Chipset))
		}
		return nil, fmt.Errorf("%w (have %s)", err, strings.Join(have, ", "))
	}
	return p, nil
}

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

// parseStdLib resolves bench's -stdlib vocabulary.
func parseStdLib(s string) (tflite.StdLib, error) {
	switch s {
	case "libc++":
		return tflite.LibCXX, nil
	case "libstdc++":
		return tflite.LibStdCXX, nil
	default:
		return tflite.LibCXX, fmt.Errorf("unknown stdlib %q (libc++|libstdc++)", s)
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
