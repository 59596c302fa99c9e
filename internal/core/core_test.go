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
	// Retry and fallback average alongside, and count as tax.
	runs[0].Retry, runs[1].Fallback = 3, 6
	if m := Mean(runs); m.Retry != 1 || m.Fallback != 2 || m.Tax() != 13 {
		t.Fatalf("fault recovery means: %+v, tax %d ns", m, m.Tax())
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
	if got := NumStages.String(); got != "Stage(5)" {
		t.Fatalf("out-of-range stage prints %q", got)
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
