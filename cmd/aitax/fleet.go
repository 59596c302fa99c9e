package main

import (
	"fmt"
	"io"
	"strings"

	"aitax/internal/fleet"
	"aitax/internal/lab"
	"aitax/internal/models"
	"aitax/internal/plan"
	"aitax/internal/soc"
)

// defaultModels is the default application mix: the Table-I models with
// full int8 NNAPI support, so the default configuration exercises the
// DSP FastRPC path on every catalog entry.
const defaultModels = "MobileNet 1.0 v1,SSD MobileNet v2,EfficientNet-Lite0"

// runFleet is aitax fleet, the device-fleet simulation: a seeded
// sampler expands the Table-II-derived SoC catalog into a heterogeneous
// device population (silicon binning, thermal state, FastRPC transport
// jitter), and a sharded runner folds every device's frame anatomy into
// per-tier mergeable statistics.
//
//	aitax fleet -devices 10000 -seed 42
//
// The report is byte-identical for a fixed (catalog, devices, models,
// dtype, delegate, seed) at any -parallel and any -shards value: every
// printed figure derives from exactly-mergeable state (integer bucket
// counts, exact extremes, fixed-point regression sums) merged in shard
// submission order. Facts that legitimately vary with the run shape —
// worker counts, plan-cache hit rates — print on stderr only.
func runFleet(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("fleet", stderr)
	devices := fs.Int("devices", 10000, "fleet size (sampled devices)")
	shards := fs.Int("shards", 32, "device-index shards; output is byte-identical at any value")
	modelList := fs.String("models", defaultModels, "comma-separated application mix (devices are assigned one model each by seeded hash)")
	dtype := fs.String("dtype", "int8", "precision: fp32 | int8")
	delegate := fs.String("delegate", "nnapi", "delegate: cpu | gpu | hexagon | nnapi")
	seed := fs.Uint64("seed", 42, "population seed; drives entry choice and every per-device jitter")
	jsonl := fs.String("jsonl", "", "write population distribution rows (JSONL) to this path")
	counters := fs.String("counters", "", "write Chrome-trace convergence counters to this path")
	common := register(fs, sharedFlags{Parallel: true, Progress: true})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	dt, err := parseDType(*dtype)
	if err != nil {
		fmt.Fprintln(stderr, "aitax fleet:", err)
		return 2
	}
	del, err := parseDelegate(*delegate)
	if err != nil {
		fmt.Fprintln(stderr, "aitax fleet:", err)
		return 2
	}
	var mix []*models.Model
	for _, name := range strings.Split(*modelList, ",") {
		m, err := models.ByName(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(stderr, "aitax fleet:", err)
			return 2
		}
		mix = append(mix, m)
	}

	cfg := fleet.Config{
		Catalog:  soc.DefaultCatalog(),
		Devices:  *devices,
		Shards:   *shards,
		Models:   mix,
		DType:    dt,
		Delegate: del,
		Seed:     *seed,
		Parallel: common.Parallel,
	}
	if common.Progress {
		cfg.OnProgress = func(r lab.JobResult) {
			fmt.Fprintf(stderr, "aitax fleet: %s done in %v\n", r.ID, r.Wall)
		}
	}

	hits0, misses0, _ := plan.Shared.Stats()
	res, err := fleet.Run(nil, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "aitax fleet:", err)
		return 1
	}
	if err := fleet.WriteReport(stdout, res); err != nil {
		fmt.Fprintln(stderr, "aitax fleet:", err)
		return 1
	}
	// Run-shape facts: stderr only, outside the byte-identity contract.
	hits, misses, _ := plan.Shared.Stats()
	fmt.Fprintf(stderr, "aitax fleet: %d shards, parallel %d, anatomy cache %d hits / %d misses\n",
		res.Shards, common.Parallel, hits-hits0, misses-misses0)

	if *jsonl != "" {
		if err := writeFile(*jsonl, func(w io.Writer) error {
			return fleet.WriteJSONL(w, res)
		}); err != nil {
			fmt.Fprintln(stderr, "aitax fleet:", err)
			return 1
		}
	}
	if *counters != "" {
		if err := writeFile(*counters, func(w io.Writer) error {
			return fleet.WriteCounters(w, res)
		}); err != nil {
			fmt.Fprintln(stderr, "aitax fleet:", err)
			return 1
		}
	}
	return 0
}
