package app

import (
	"testing"
	"time"

	"aitax/internal/core"
	"aitax/internal/faults"
	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func newFaultyApp(t *testing.T, plan faults.Plan, cfg Config) (*tflite.Runtime, *App) {
	t.Helper()
	rt := tflite.NewStack(soc.Pixel3(), 42)
	inj, err := faults.New(plan.Resolved(42))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	rt.Faults = inj
	if cfg.Model == nil {
		m, err := models.ByName("MobileNet 1.0 v1")
		if err != nil {
			t.Fatal(err)
		}
		cfg.Model = m
	}
	a, err := New(rt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, a
}

// Satellite: retried FastRPC calls add exactly the expected virtual-time
// backoff to the frame's AI-tax share. Every attempt times out (rate 1,
// deadline-bounded, payload-independent), so the first frame's retry tax
// is a closed form: MaxAttempts × Deadline + the geometric backoffs —
// after which the delegate is torn down and the run continues on CPU.
func TestRetryBackoffFlowsIntoFrameTax(t *testing.T) {
	plan := faults.Plan{
		RPCTimeoutRate: 1,
		Deadline:       40 * time.Millisecond,
		MaxAttempts:    3,
		Backoff:        2 * time.Millisecond,
		BackoffFactor:  2,
	}
	rt, a := newFaultyApp(t, plan, Config{DType: tensor.UInt8, Delegate: tflite.DelegateHexagon})
	sts := runFrames(rt, a, 3)
	if len(sts) != 3 {
		t.Fatalf("frames = %d, want 3 (pipeline must survive the fault)", len(sts))
	}

	// 3 timed-out attempts plus backoffs 2ms and 4ms.
	wantRetry := 3*40*time.Millisecond + 2*time.Millisecond + 4*time.Millisecond
	first := sts[0]
	if first.Retry != wantRetry {
		t.Fatalf("frame 1 Retry = %v, want exactly %v", first.Retry, wantRetry)
	}
	if first.Fallback <= 0 {
		t.Fatal("frame 1 must pay the delegate teardown + CPU re-init cost")
	}
	inf := first.Stage[core.StageInference]
	if got, want := first.Tax(), first.Total-inf+wantRetry+first.Fallback; got != want {
		t.Fatalf("frame 1 Tax = %v, want %v (stage tax + retry + fallback)", got, want)
	}
	if !a.Interpreter().FellBack() {
		t.Fatal("interpreter must report the fallback")
	}
	// The teardown is permanent: later frames run the CPU plan cleanly.
	for i, st := range sts[1:] {
		if st.Retry != 0 || st.Fallback != 0 {
			t.Fatalf("frame %d after fallback: retry=%v fallback=%v, want zero", i+2, st.Retry, st.Fallback)
		}
		if st.Stage[core.StageInference] <= 0 {
			t.Fatalf("frame %d did not run inference", i+2)
		}
		if st.Tax() != st.Total-st.Stage[core.StageInference] {
			t.Fatalf("frame %d tax accounting drifted", i+2)
		}
	}
}

// Acceptance demo shape: a Hexagon run whose delegate init fails
// completes every frame on the CPU interpreter instead of dying.
func TestDelegateInitFailureFallsBackToCPU(t *testing.T) {
	rt, a := newFaultyApp(t, faults.Plan{DelegateInitFailRate: 1},
		Config{DType: tensor.UInt8, Delegate: tflite.DelegateHexagon})
	sts := runFrames(rt, a, 4)
	if len(sts) != 4 {
		t.Fatalf("frames = %d, want 4", len(sts))
	}
	if !a.Interpreter().FellBack() {
		t.Fatal("delegate-init fault must force the CPU fallback")
	}
	for i, st := range sts {
		if st.Stage[core.StageInference] <= 0 {
			t.Fatalf("frame %d inference = %v", i+1, st.Stage[core.StageInference])
		}
		if st.Retry != 0 || st.Fallback != 0 {
			t.Fatalf("init-time fallback must not charge per-frame retry/fallback, frame %d: %+v", i+1, st)
		}
	}
	// The init-time fallback costs extra InitTime relative to a clean run.
	rtClean, clean := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateHexagon, false)
	runFrames(rtClean, clean, 1)
	if a.Interpreter().InitTime <= clean.Interpreter().InitTime {
		t.Fatalf("fallback InitTime %v must exceed clean InitTime %v",
			a.Interpreter().InitTime, clean.Interpreter().InitTime)
	}
}

// A PreOnDSP pipeline whose FastRPC session never comes up degrades to
// the managed CPU pre-processing path and keeps producing frames.
func TestPreDSPSessionFailureDegradesToCPU(t *testing.T) {
	rt, a := newFaultyApp(t, faults.Plan{SessionFailRate: 1, MaxAttempts: 2},
		Config{DType: tensor.UInt8, Delegate: tflite.DelegateCPU, PreOnDSP: true})
	sts := runFrames(rt, a, 3)
	if len(sts) != 3 {
		t.Fatalf("frames = %d, want 3", len(sts))
	}
	if !a.preDSPDown {
		t.Fatal("pre-DSP path must be marked down after session failure")
	}
	for i, st := range sts {
		if st.Stage[core.StagePre] <= 0 {
			t.Fatalf("frame %d pre = %v, want CPU fallback to run", i+1, st.Stage[core.StagePre])
		}
	}
	// The first frame ate the failed session attempts inside Pre.
	if sts[0].Stage[core.StagePre] <= sts[1].Stage[core.StagePre] {
		t.Fatalf("frame 1 pre (%v) must exceed steady-state pre (%v): it paid the failed setup",
			sts[0].Stage[core.StagePre], sts[1].Stage[core.StagePre])
	}
}

// With a fixed seed and plan the whole faulty app run is deterministic.
func TestFaultyAppRunDeterministic(t *testing.T) {
	run := func() []core.StageTimes {
		rt, a := newFaultyApp(t, faults.Plan{RPCErrorRate: 0.3, StallRate: 0.3, Seed: 9},
			Config{DType: tensor.UInt8, Delegate: tflite.DelegateHexagon})
		return runFrames(rt, a, 5)
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("frame counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("frame %d diverged: %+v vs %+v", i+1, a[i], b[i])
		}
	}
}
