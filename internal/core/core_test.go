package core

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestTaxonomyCoversFigure1(t *testing.T) {
	tax := Taxonomy()
	if len(tax) != 9 {
		t.Fatalf("taxonomy leaves = %d, want 9", len(tax))
	}
	byCat := map[Category]int{}
	for _, c := range tax {
		byCat[c.Category]++
		if c.Name == "" || c.Detail == "" {
			t.Fatal("incomplete taxonomy entry")
		}
	}
	if byCat[CategoryAlgorithms] != 3 || byCat[CategoryFrameworks] != 3 || byCat[CategoryHardware] != 3 {
		t.Fatalf("category split = %v", byCat)
	}
	out := RenderTaxonomy()
	for _, want := range []string{"Algorithms", "Frameworks", "Hardware", "Data Capture", "Offload"} {
		if !strings.Contains(out, want) {
			t.Fatalf("taxonomy render missing %q", want)
		}
	}
}

// st builds a conserving StageTimes from per-stage nanoseconds (capture,
// pre, inference, post, ui): Total is the stage sum.
func st(unit time.Duration, stages ...int) StageTimes {
	var t StageTimes
	for s, v := range stages {
		t.Stage[s] = time.Duration(v) * unit
		t.Total += t.Stage[s]
	}
	return t
}

func frames() []StageTimes {
	return []StageTimes{
		st(time.Millisecond, 10, 6, 8, 1, 4),
		st(time.Millisecond, 12, 6, 8, 1, 4),
		st(time.Millisecond, 14, 6, 8, 1, 4),
	}
}

func TestFromFramesAggregates(t *testing.T) {
	b := FromFrames(frames())
	if b.N != 3 {
		t.Fatalf("n = %d", b.N)
	}
	if b.Mean.Stage[StageCapture] != 12*time.Millisecond {
		t.Fatalf("capture mean = %v, want 12ms", b.Mean.Stage[StageCapture])
	}
	if b.Mean.Stage[StageInference] != 8*time.Millisecond {
		t.Fatalf("inference mean = %v", b.Mean.Stage[StageInference])
	}
	if b.Total() != 31*time.Millisecond {
		t.Fatalf("total = %v", b.Total())
	}
	if b.Tax() != 23*time.Millisecond {
		t.Fatalf("tax = %v", b.Tax())
	}
	frac := b.TaxFraction()
	if frac < 0.74 || frac > 0.75 {
		t.Fatalf("tax fraction = %v, want ~0.742", frac)
	}
	if b.E2E.N != 3 || b.E2E.Mean < 30 || b.E2E.Mean > 32 {
		t.Fatalf("e2e summary = %+v", b.E2E)
	}
}

// The two means of the total are different numbers and outputs print
// both: Mean(...).Total is the mean of the per-run totals, while
// Breakdown.Total() is the sum of the per-stage means. With totals that
// do not divide evenly, integer rounding separates them.
func TestMeanTotalVersusStageSum(t *testing.T) {
	runs := []StageTimes{
		st(1, 5, 1, 7, 0, 2), // total 15
		st(1, 6, 2, 7, 1, 2), // total 18
		st(1, 6, 2, 8, 1, 3), // total 20
	}
	m := Mean(runs)
	if want := [NumStages]time.Duration{5, 1, 7, 0, 2}; m.Stage != want {
		t.Fatalf("stage means = %v, want %v", m.Stage, want)
	}
	if m.Total != 17 { // 53 / 3
		t.Fatalf("Mean(...).Total = %d ns, want 17 (mean of the totals)", m.Total)
	}
	b := FromFrames(runs)
	if b.Mean != m {
		t.Fatalf("Breakdown.Mean = %+v, want Mean(...) %+v", b.Mean, m)
	}
	if b.Total() != 15 { // 5+1+7+0+2
		t.Fatalf("Breakdown.Total() = %d ns, want 15 (sum of the stage means)", b.Total())
	}
	if m.Tax() != 10 || b.Tax() != 8 {
		t.Fatalf("tax: Mean(...).Tax() = %d ns, Breakdown.Tax() = %d ns, want 10 and 8", m.Tax(), b.Tax())
	}
	// Retry, fallback and the FastRPC split average alongside; only
	// fault recovery counts as tax.
	runs[0].Retry, runs[1].Fallback, runs[2].RPC, runs[0].Exec = 3, 6, 4, 7
	if m := Mean(runs); m.Retry != 1 || m.Fallback != 2 || m.RPC != 1 || m.Exec != 2 || m.Tax() != 13 {
		t.Fatalf("fault recovery means: %+v, tax %d ns", m, m.Tax())
	}
}

// TestOfSubStages: framework, FastRPC and kernel time tile the inference
// stage whenever the measured split fits inside it.
func TestOfSubStages(t *testing.T) {
	cases := []struct {
		name              string
		infer, rpc, exec  time.Duration
		framework, kernel time.Duration
	}{
		{"split inside inference", 10, 2, 5, 3, 5},
		{"split fills inference", 10, 4, 6, 0, 6},
		{"rpc without exec", 10, 3, 0, 7, 0},
		{"no split: all kernel", 10, 0, 0, 0, 10},
		{"split past inference: framework clamps at 0", 10, 6, 7, 0, 7},
	}
	for _, tc := range cases {
		var st StageTimes
		st.Stage[StageInference], st.RPC, st.Exec = tc.infer, tc.rpc, tc.exec
		fw, rpc, kernel := st.Of(StageFramework), st.Of(StageRPC), st.Of(StageKernel)
		if fw != tc.framework || rpc != tc.rpc || kernel != tc.kernel {
			t.Errorf("%s: framework/rpc/kernel = %v/%v/%v, want %v/%v/%v",
				tc.name, fw, rpc, kernel, tc.framework, tc.rpc, tc.kernel)
		}
		if tc.rpc+tc.exec <= tc.infer && fw+rpc+kernel != tc.infer {
			t.Errorf("%s: sub-stages sum to %v, not the inference stage %v", tc.name, fw+rpc+kernel, tc.infer)
		}
		if got := st.Of(StageInference); got != tc.infer {
			t.Errorf("%s: Of(inference) = %v, want %v", tc.name, got, tc.infer)
		}
	}
}

func TestEmptyFrames(t *testing.T) {
	b := FromFrames(nil)
	if b.Total() != 0 || b.TaxFraction() != 0 {
		t.Fatal("empty breakdown must be zero")
	}
	if Mean(nil) != (StageTimes{}) {
		t.Fatal("mean of no runs must be zero")
	}
}

func TestRenderBreakdown(t *testing.T) {
	out := FromFrames(frames()).Render()
	for _, want := range []string{"data capture", "model execution", "AI tax", "end-to-end"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestParseStage(t *testing.T) {
	for s := StageCapture; s < NumStages; s++ {
		got, err := ParseStage(s.String())
		if err != nil || got != s {
			t.Fatalf("ParseStage(%q) = %v, %v", s.String(), got, err)
		}
	}
	_, err := ParseStage("render")
	if !errors.Is(err, ErrUnknownStage) {
		t.Fatalf("ParseStage(\"render\") error %v does not wrap ErrUnknownStage", err)
	}
	if want := `app: unknown stage "render" (capture|pre|inference|post|ui)`; err.Error() != want {
		t.Fatalf("message %q, want %q", err.Error(), want)
	}
	if got := (StageKernel + 1).String(); got != "Stage(8)" {
		t.Fatalf("out-of-range stage prints %q", got)
	}
	// Sub-stages have names but are not pipeline stages.
	for s := StageFramework; s <= StageKernel; s++ {
		if _, err := ParseStage(s.String()); !errors.Is(err, ErrUnknownStage) {
			t.Fatalf("sub-stage %q parses as a stage (error %v)", s, err)
		}
	}
}

// FuzzParseStage: no input panics, and each either fails with an error
// wrapping ErrUnknownStage or yields a stage whose name round-trips.
func FuzzParseStage(f *testing.F) {
	for _, seed := range []string{"capture", "pre", "inference", "post", "ui", "", "render", "Stage(5)", "UI", "pre "} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		s, err := ParseStage(name)
		if err != nil {
			if !errors.Is(err, ErrUnknownStage) {
				t.Fatalf("ParseStage(%q) error %v does not wrap ErrUnknownStage", name, err)
			}
			return
		}
		if s < 0 || s >= NumStages || s.String() != name {
			t.Fatalf("ParseStage(%q) = %v, which does not round-trip", name, s)
		}
	})
}
