package app

import (
	"testing"
	"time"

	"aitax/internal/core"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// A served request enters at pre and exits after post: the stages it
// never ran stay zero, so Tax() is exact for the traversed segment.
func TestProcessRangeMidGraphEntry(t *testing.T) {
	rt, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, false)
	var st core.StageTimes
	a.Init(func() {
		a.ProcessRange(core.StagePre, core.StagePost, func(s core.StageTimes) { st = s })
	})
	rt.Eng.Run()
	if st.Stage[core.StageCapture] != 0 || st.Stage[core.StageUI] != 0 {
		t.Fatalf("skipped stages nonzero: capture %v, ui %v", st.Stage[core.StageCapture], st.Stage[core.StageUI])
	}
	if st.Stage[core.StagePre] <= 0 || st.Stage[core.StageInference] <= 0 || st.Stage[core.StagePost] <= 0 {
		t.Fatalf("traversed stages missing: %+v", st)
	}
	if st.Total < st.Stage[core.StagePre]+st.Stage[core.StageInference]+st.Stage[core.StagePost] {
		t.Fatalf("total %v below stage sum", st.Total)
	}
	if st.Tax() != st.Total-st.Stage[core.StageInference] {
		t.Fatal("tax accounting broken for a partial traversal")
	}
}

// A full-range ProcessRange is exactly ProcessFrame.
func TestProcessRangeFullMatchesProcessFrame(t *testing.T) {
	rtA, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, false)
	var viaRange core.StageTimes
	a.Init(func() {
		a.ProcessRange(core.StageCapture, core.StageUI, func(s core.StageTimes) { viaRange = s })
	})
	rtA.Eng.Run()

	rtB, b := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, false)
	var viaFrame core.StageTimes
	b.Init(func() {
		b.ProcessFrame(func(s core.StageTimes) { viaFrame = s })
	})
	rtB.Eng.Run()

	if viaRange != viaFrame {
		t.Fatalf("ProcessRange(capture, ui) %+v != ProcessFrame %+v", viaRange, viaFrame)
	}
}

func TestProcessRangeInvalidRangePanics(t *testing.T) {
	_, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, false)
	for _, r := range [][2]core.Stage{{core.StagePost, core.StagePre}, {core.StageCapture, core.StageUI + 1}, {-1, core.StageUI}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("ProcessRange(%v, %v) did not panic", r[0], r[1])
				}
			}()
			a.ProcessRange(r[0], r[1], nil)
		}()
	}
}

// Mid-graph entries are cheaper than full frames: the serving path
// skips the capture wait and UI render entirely.
func TestProcessRangeSkipsStageCosts(t *testing.T) {
	rtA, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, false)
	var partial core.StageTimes
	a.Init(func() {
		a.ProcessRange(core.StagePre, core.StagePost, func(s core.StageTimes) { partial = s })
	})
	rtA.Eng.Run()

	rtB, b := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, false)
	var full core.StageTimes
	b.Init(func() {
		b.ProcessFrame(func(s core.StageTimes) { full = s })
	})
	rtB.Eng.Run()

	if partial.Total+time.Microsecond >= full.Total {
		t.Fatalf("partial traversal %v not cheaper than full frame %v", partial.Total, full.Total)
	}
}
