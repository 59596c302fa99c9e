package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"aitax"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func TestRegisterSelectsFlags(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := register(fs, sharedFlags{Trace: true, Metrics: true, Faults: true, Parallel: true, Progress: true})
	if err := fs.Parse([]string{
		"-trace", "t.json", "-metrics", "m.prom", "-faults", "rpc=0.1", "-parallel", "3", "-progress",
	}); err != nil {
		t.Fatal(err)
	}
	if c.Trace != "t.json" || c.Metrics != "m.prom" || c.FaultSpec != "rpc=0.1" ||
		c.Parallel != 3 || !c.Progress {
		t.Fatalf("parsed values %+v", c)
	}
	plan, err := c.FaultPlan()
	if err != nil {
		t.Fatal(err)
	}
	if plan.RPCErrorRate != 0.1 {
		t.Fatalf("fault plan %+v", plan)
	}
}

func TestRegisterDefaults(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c := register(fs, sharedFlags{Trace: true, Parallel: true})
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if c.Trace != "" {
		t.Fatalf("trace default %q, want off", c.Trace)
	}
	if c.Parallel != runtime.GOMAXPROCS(0) {
		t.Fatalf("parallel default %d, want GOMAXPROCS", c.Parallel)
	}
	// Unregistered flags stay unknown.
	fs2 := flag.NewFlagSet("t2", flag.ContinueOnError)
	fs2.SetOutput(io.Discard)
	register(fs2, sharedFlags{})
	if err := fs2.Parse([]string{"-trace", "x"}); err == nil {
		t.Fatal("unregistered -trace parsed")
	}
}

// An unknown -platform exits 1 on every subcommand that takes it, and
// the error names every catalog platform while still wrapping
// ErrUnknownPlatform.
func TestUnknownPlatformListsCatalog(t *testing.T) {
	for _, c := range []struct {
		name string
		fn   func([]string, io.Writer, io.Writer) int
	}{
		{"experiments", runExperiments}, {"validate", runValidate}, {"app", runApp}, {"bench", runBench},
		{"trace", runTrace}, {"profile", runProfile}, {"serve", runServe},
	} {
		code, stderr := runCode(c.fn, "-platform", "Open-Q 835")
		if code != 1 || !strings.Contains(stderr, "Open-Q 835 uSOM") {
			t.Errorf("%s -platform \"Open-Q 835\": exit %d, stderr %q; want exit 1 naming Open-Q 835 uSOM", c.name, code, stderr)
		}
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	run := bindPlatform(fs)
	if err := fs.Parse([]string{"-platform", "Open-Q 835"}); err != nil {
		t.Fatal(err)
	}
	_, err := run.soc()
	if !errors.Is(err, aitax.ErrUnknownPlatform) {
		t.Fatalf("soc() = %v, want an error wrapping ErrUnknownPlatform", err)
	}
	for _, p := range aitax.Platforms() {
		if !strings.Contains(err.Error(), p.Name+" ("+p.Chipset+")") {
			t.Errorf("error %q does not list %s", err, p.Name)
		}
	}
}

func TestParseDTypeAndDelegate(t *testing.T) {
	for s, want := range map[string]tensor.DType{
		"fp32": tensor.Float32, "float32": tensor.Float32,
		"int8": tensor.UInt8, "uint8": tensor.UInt8, "quant": tensor.UInt8,
	} {
		got, err := parseDType(s)
		if err != nil || got != want {
			t.Errorf("parseDType(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseDType("bf16"); err == nil {
		t.Error("parseDType accepted bf16")
	}
	for s, want := range map[string]tflite.Delegate{
		"cpu": tflite.DelegateCPU, "gpu": tflite.DelegateGPU,
		"hexagon": tflite.DelegateHexagon, "dsp": tflite.DelegateHexagon,
		"nnapi": tflite.DelegateNNAPI,
	} {
		got, err := parseDelegate(s)
		if err != nil || got != want {
			t.Errorf("parseDelegate(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseDelegate("npu"); err == nil {
		t.Error("parseDelegate accepted npu")
	}
}

func TestWriteFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.txt")
	if err := writeFile(path, func(w io.Writer) error {
		_, err := fmt.Fprint(w, "hello")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil || string(b) != "hello" {
		t.Fatalf("read %q, %v", b, err)
	}
	if err := writeFile(path, func(io.Writer) error { return fmt.Errorf("boom") }); err == nil {
		t.Fatal("write error swallowed")
	}
}
