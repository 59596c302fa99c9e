// Command aitax reproduces "AI Tax in Mobile SoCs" on a simulated
// platform and serves, profiles and benchmarks the result. Every tool
// is a subcommand with its own flags:
//
//	aitax experiments -run fig5       # regenerate a table or figure
//	aitax validate                    # shape-check gate (-chaos, -brownout)
//	aitax app -frames 100             # per-stage AI-tax breakdown
//	aitax serve -loadgen              # serving simulator (or HTTP server)
//
// Run aitax with no arguments for the full list.
package main

import (
	"fmt"
	"io"
	"os"
	"time"
)

// commands is the subcommand table: name, one-line summary, entry
// point. Every entry point takes its arguments after the subcommand
// name and returns the process exit code.
var commands = []struct {
	name, summary string
	run           func(args []string, stdout, stderr io.Writer) int
}{
	{"experiments", "regenerate the paper's tables and figures", runExperiments},
	{"validate", "paper shape-check gate; -chaos and -brownout gates", runValidate},
	{"app", "per-stage AI-tax breakdown of the application pipeline", runApp},
	{"bench", "TFLite-style benchmark utility; -parse/-compare BENCH reports", runBench},
	{"trace", "traced app run: per-stage quantiles, Chrome trace, metrics, span log", runTrace},
	{"profile", "Snapdragon-Profiler-style scheduler timeline (Fig. 6)", runProfile},
	{"serve", "serving frontend: HTTP server, or -loadgen virtual-time simulation", runServe},
	{"fleet", "device-fleet simulation over the SoC catalog", runFleet},
}

func main() {
	os.Exit(dispatch(os.Args[1:], os.Stdout, os.Stderr))
}

// dispatch runs the subcommand named by args[0]. With no argument, -h
// or an unknown name it prints the subcommand table to stderr and
// returns 2.
func dispatch(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, c := range commands {
			if c.name == args[0] {
				return c.run(args[1:], stdout, stderr)
			}
		}
		if args[0] != "-h" {
			fmt.Fprintf(stderr, "aitax: unknown subcommand %q\n", args[0])
		}
	}
	fmt.Fprintln(stderr, "usage: aitax <subcommand> [flags]   (aitax <subcommand> -h lists its flags)")
	fmt.Fprintln(stderr)
	for _, c := range commands {
		fmt.Fprintf(stderr, "  %-12s %s\n", c.name, c.summary)
	}
	return 2
}

// fail reports err on stderr and returns exit code 1.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, err)
	return 1
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
