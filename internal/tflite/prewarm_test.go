package tflite

import (
	"testing"

	"aitax/internal/models"
	"aitax/internal/plan"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

// TestSupportedMirrorsTableI pins the grid filter against the
// validation NewInterpreter performs, so the prewarm pass never
// enumerates a combination that would fail to build.
func TestSupportedMirrorsTableI(t *testing.T) {
	mobilenet, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		t.Fatal(err)
	}
	deeplab, err := models.ByName("Deeplab-v3 MobileNet-v2")
	if err != nil {
		t.Fatal(err)
	}
	if !Supported(mobilenet, tensor.Int8, DelegateHexagon) {
		t.Fatal("quantized MobileNet on Hexagon is a Table-I configuration")
	}
	if Supported(mobilenet, tensor.Float32, DelegateHexagon) {
		t.Fatal("the Hexagon delegate requires a quantized model")
	}
	if Supported(deeplab, tensor.Int8, DelegateCPU) {
		t.Fatal("Deeplab has no quantized variant (Table I)")
	}
	// The filter must agree with NewInterpreter over the whole grid.
	p := soc.Pixel3()
	rt := NewStack(p, 0)
	rt.Plans = plan.New()
	for _, m := range []*models.Model{mobilenet, deeplab} {
		for _, dt := range GridDTypes {
			for _, d := range AllDelegates {
				_, err := rt.NewInterpreter(m, dt, Options{Delegate: d})
				if got, want := Supported(m, dt, d), err == nil; got != want {
					t.Errorf("%s/%v/%v: Supported=%v, NewInterpreter err=%v", m.Name, dt, d, got, err)
				}
			}
		}
	}
}

// TestPrewarmJobsWarmEveryServingKey proves the tentpole property: after
// one prewarm pass over the grid, building any supported interpreter —
// including the NNAPI path, which compiles at Init — touches the cache
// without a single miss. The cold-start plan tax is fully front-loaded.
func TestPrewarmJobsWarmEveryServingKey(t *testing.T) {
	c := plan.New()
	p := soc.Pixel3()
	ms := models.All()
	jobs := PrewarmJobs(c, []*soc.SoC{p}, ms, GridDTypes, AllDelegates)
	if len(jobs) == 0 {
		t.Fatal("empty prewarm grid")
	}
	supported, all := 0, 0
	for _, m := range ms {
		for _, dt := range GridDTypes {
			for _, d := range AllDelegates {
				all++
				if Supported(m, dt, d) {
					supported++
				}
			}
		}
	}
	if len(jobs) != supported || supported == all {
		t.Fatalf("%d jobs for %d supported of %d combinations, want one per supported combination and some unsupported",
			len(jobs), supported, all)
	}
	rep := c.Prewarm(jobs)
	if rep.Jobs != len(jobs) || rep.Entries == 0 {
		t.Fatalf("report = %+v, want %d jobs adding entries", rep, len(jobs))
	}
	if again := c.Prewarm(PrewarmJobs(c, []*soc.SoC{p}, ms, GridDTypes, AllDelegates)); again.Entries != 0 || again.Compile != 0 {
		t.Fatalf("second pass = %+v, want a free all-hit no-op", again)
	}

	// Every supported interpreter build on a fresh stack is now all-hit.
	rt := NewStack(p, 1)
	rt.Plans = c
	for _, m := range ms {
		for _, dt := range GridDTypes {
			for _, d := range AllDelegates {
				if !Supported(m, dt, d) {
					continue
				}
				_, missesBefore, _ := c.Stats()
				ip, err := rt.NewInterpreter(m, dt, Options{Delegate: d})
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", m.Name, dt, d, err)
				}
				if d == DelegateNNAPI {
					ip.Init(nil)
				}
				if _, missesAfter, _ := c.Stats(); missesAfter != missesBefore {
					t.Fatalf("%s/%v/%v: %d cache misses after prewarm, want none",
						m.Name, dt, d, missesAfter-missesBefore)
				}
			}
		}
	}
}
