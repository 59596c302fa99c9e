package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCmd runs one subcommand entry point on args and returns its
// stdout, failing the test unless it exits 0.
func runCmd(t *testing.T, fn func([]string, io.Writer, io.Writer) int, args ...string) string {
	t.Helper()
	var out, errb bytes.Buffer
	if code := fn(args, &out, &errb); code != 0 {
		t.Fatalf("%v: exit %d, stderr:\n%s", args, code, errb.String())
	}
	return out.String()
}

// runCode runs one subcommand entry point on args and returns its exit
// code and stderr, for the cases that are meant to fail.
func runCode(fn func([]string, io.Writer, io.Writer) int, args ...string) (int, string) {
	var errb bytes.Buffer
	code := fn(args, io.Discard, &errb)
	return code, errb.String()
}

// readFile returns the contents of path, failing the test on error.
func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkGolden fails the test unless got equals testdata/name.
func checkGolden(t *testing.T, got, name string) {
	t.Helper()
	if want := readFile(t, filepath.Join("testdata", name)); got != want {
		t.Fatalf("output diverged from %s\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// No argument, -h and an unknown name all print the subcommand table
// to stderr, nothing to stdout, and exit 2.
func TestDispatchUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"-h"}, {"no-such-subcommand"}} {
		var out, errb bytes.Buffer
		if code := dispatch(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: usage leaked to stdout:\n%s", args, out.String())
		}
		for _, c := range commands {
			if !strings.Contains(errb.String(), c.name+" ") || !strings.Contains(errb.String(), c.summary) {
				t.Errorf("%v: usage table missing %q:\n%s", args, c.name, errb.String())
			}
		}
	}
}

func TestDispatchRoutesToSubcommand(t *testing.T) {
	got := runCmd(t, dispatch, "bench", "-list")
	if !strings.HasPrefix(got, "MobileNet 1.0 v1\n") {
		t.Fatalf("aitax bench -list printed:\n%s", got)
	}
}

// The app and bench reports are pinned to goldens: the default runs
// were recorded from the standalone binaries they replaced; the
// background-tenant, fault-plan and standard-library runs pin the
// flags those defaults leave unset.
func TestGoldenApp(t *testing.T) {
	checkGolden(t, runCmd(t, runApp, "-frames", "10"), "app_frames10.golden")
	checkGolden(t, runCmd(t, runApp, "-frames", "10", "-bg", "2", "-faults", "rpc=0.2,seed=7"),
		"app_bg2_faults_frames10.golden")
}

func TestGoldenBench(t *testing.T) {
	checkGolden(t, runCmd(t, runBench, "-runs", "10"), "bench_runs10.golden")
	checkGolden(t, runCmd(t, runBench, "-runs", "10", "-stdlib", "libstdc++", "-dtype", "int8", "-delegate", "hexagon"),
		"bench_libstdcxx_hexagon_runs10.golden")
}

// -stdlib accepts only the two libraries it names; anything else is an
// error, not a silent libc++ run.
func TestBenchStdLibFlag(t *testing.T) {
	if code, stderr := runCode(runBench, "-runs", "2", "-stdlib", "libstdc++"); code != 0 {
		t.Fatalf("-stdlib libstdc++: exit %d, stderr %q", code, stderr)
	}
	code, stderr := runCode(runBench, "-runs", "2", "-stdlib", "foo")
	if code != 1 || !strings.Contains(stderr, `unknown stdlib "foo"`) {
		t.Fatalf("-stdlib foo: exit %d, stderr %q; want exit 1 naming the library", code, stderr)
	}
}

// A negative iteration count fails with a clean error and exit 1.
func TestNegativeCountsFailCleanly(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func([]string, io.Writer, io.Writer) int
		args []string
		want string
	}{
		{"bench", runBench, []string{"-runs", "-3"}, "negative Frames -3"},
		{"trace", runTrace, []string{"-frames", "-2"}, "negative Frames -2"},
		{"app", runApp, []string{"-frames", "-2"}, "negative Frames -2"},
		{"experiments", runExperiments, []string{"-run", "fig5", "-runs", "-1"}, "fig5: bench: negative Runs -1"},
		{"serve", runServe, []string{"-loadgen", "-obs-window", "-5s"}, "serve: obs window must be non-negative, got -5s"},
	} {
		code, stderr := runCode(c.fn, c.args...)
		if code != 1 || !strings.Contains(stderr, c.want) {
			t.Errorf("%s %v: exit %d, stderr %q; want exit 1 and %q", c.name, c.args, code, stderr, c.want)
		}
	}
}
