// Benchmarks: one per paper table/figure (regenerating the artifact and
// reporting its headline metric), plus microbenchmarks of the real
// pre-/post-processing kernels whose cost constitutes the algorithmic
// AI tax. Run with:
//
//	go test -bench=. -benchmem
package aitax_test

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"aitax"
	"aitax/internal/app"
	"aitax/internal/bench"
	"aitax/internal/imaging"
	"aitax/internal/postproc"
	"aitax/internal/preproc"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func benchCfg() bench.Config {
	return bench.Config{Platform: soc.Pixel3(), Seed: 42, Runs: 12}
}

// runExperiment executes one experiment per iteration and fails the
// bench if a shape check regressed.
func runExperiment(b *testing.B, id string) *bench.Result {
	b.Helper()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var res *bench.Result
	for i := 0; i < b.N; i++ {
		res = e.Run(benchCfg())
	}
	for _, n := range res.Notes {
		if strings.Contains(n, "FAIL") || strings.Contains(n, "setup failed") {
			b.Fatalf("shape check regressed: %s", n)
		}
	}
	return res
}

// cell parses a float table cell like "42.13" or "95.0%".
func cell(s string) float64 {
	v, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSuffix(s, "%"), "x"), 64)
	return v
}

func BenchmarkTableI(b *testing.B)  { runExperiment(b, "table1") }
func BenchmarkTableII(b *testing.B) { runExperiment(b, "table2") }

func BenchmarkFigure3(b *testing.B) {
	res := runExperiment(b, "fig3")
	// Report the app-over-CLI inflation of the first model.
	if len(res.Rows) > 0 {
		b.ReportMetric(cell(res.Rows[0][4]), "app/cli-x")
	}
}

func BenchmarkFigure4a(b *testing.B) { runExperiment(b, "fig4a") }

func BenchmarkFigure4b(b *testing.B) {
	res := runExperiment(b, "fig4b")
	for _, row := range res.Rows {
		if row[0] == "MobileNet 1.0 v1-int8" {
			b.ReportMetric(cell(row[2]), "app-cap+pre/inf")
		}
	}
}

func BenchmarkFigure5(b *testing.B) {
	res := runExperiment(b, "fig5")
	for _, n := range res.Notes {
		if strings.Contains(n, "degradation") {
			for _, tok := range strings.Fields(n) {
				if strings.HasSuffix(tok, "x") {
					b.ReportMetric(cell(tok), "nnapi-degradation-x")
				}
			}
		}
	}
}

func BenchmarkFigure6(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "fig7") }

func BenchmarkFigure8(b *testing.B) {
	res := runExperiment(b, "fig8")
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	b.ReportMetric(cell(first[3]), "offload-share-n1-%")
	b.ReportMetric(cell(last[3]), "offload-share-n500-%")
}

func BenchmarkFigure9(b *testing.B) {
	res := runExperiment(b, "fig9")
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	b.ReportMetric(cell(last[3])/cell(first[3]), "inference-growth-x")
}

func BenchmarkFigure10(b *testing.B) {
	res := runExperiment(b, "fig10")
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	capPre := func(r []string) float64 { return cell(r[1]) + cell(r[2]) }
	b.ReportMetric(capPre(last)/capPre(first), "capture+pre-growth-x")
}

func BenchmarkFigure11(b *testing.B) {
	res := runExperiment(b, "fig11")
	// Rows: benchmark then application; column 5 is CV.
	if len(res.Rows) == 2 {
		b.ReportMetric(cell(res.Rows[0][5]), "bench-cv-%")
		b.ReportMetric(cell(res.Rows[1][5]), "app-cv-%")
	}
}

func BenchmarkColdStart(b *testing.B)   { runExperiment(b, "coldstart") }
func BenchmarkProbeEffect(b *testing.B) { runExperiment(b, "probe") }

// --- Real-kernel microbenchmarks (host-measured Go implementations) ---

func BenchmarkYUVToARGB480p(b *testing.B) {
	frame := imaging.SyntheticFrame(480, 360, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imaging.YUVToARGB(frame)
	}
}

func BenchmarkResizeBilinearTo224(b *testing.B) {
	src := imaging.SyntheticScene(480, 360, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preproc.ResizeBilinear(src, 224, 224)
	}
}

func BenchmarkNormalize224(b *testing.B) {
	src := imaging.SyntheticScene(224, 224, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preproc.Normalize(src, 127.5, 127.5)
	}
}

func BenchmarkRotate90(b *testing.B) {
	src := imaging.SyntheticScene(480, 360, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preproc.Rotate90(src, 1)
	}
}

func BenchmarkQuantizeInput224(b *testing.B) {
	src := imaging.SyntheticScene(224, 224, 1)
	q := tensor.QuantParams{Scale: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preproc.QuantizeInput(src, tensor.UInt8, q)
	}
}

func BenchmarkTokenize(b *testing.B) {
	vocab := preproc.BasicVocab()
	text := "the camera quality on this phone is great and the battery works well for photos"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		preproc.Tokenize(text, vocab, 128)
	}
}

func BenchmarkTopK1001(b *testing.B) {
	m, _ := aitax.ModelByName("MobileNet 1.0 v1")
	outs := aitax.FabricateOutputs(m, aitax.Float32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postproc.TopK(outs[0], 5)
	}
}

func BenchmarkSSDDecodeNMS(b *testing.B) {
	m, _ := aitax.ModelByName("SSD MobileNet v2")
	outs := aitax.FabricateOutputs(m, aitax.Float32, 1)
	anchors := postproc.DefaultAnchors(26)[:1917]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		boxes := postproc.DecodeBoxes(outs[0], outs[1], anchors, 0.5)
		postproc.NMS(boxes, 0.5, 10)
	}
}

func BenchmarkMaskFlatten513(b *testing.B) {
	m, _ := aitax.ModelByName("Deeplab-v3 MobileNet-v2")
	outs := aitax.FabricateOutputs(m, aitax.Float32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postproc.FlattenMask(outs[0])
	}
}

func BenchmarkKeypointDecode(b *testing.B) {
	m, _ := aitax.ModelByName("PoseNet")
	outs := aitax.FabricateOutputs(m, aitax.Float32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		postproc.DecodeKeypoints(outs[0], outs[1], 16)
	}
}

// BenchmarkAppPipeline measures the host cost of one simulated
// application frame — capture, pre-processing, NNAPI inference,
// post-processing and UI, all costed in virtual time — with telemetry
// (span tree + metrics) recording enabled. It measures the simulator's
// own host CPU and allocation cost, not virtual time.
func BenchmarkAppPipeline(b *testing.B) {
	m, err := aitax.ModelByName("MobileNet 1.0 v1")
	if err != nil {
		b.Fatal(err)
	}
	rt := tflite.NewStack(soc.Pixel3(), 1)
	rt.Tracer = telemetry.NewTracer(rt.Eng.Now)
	rt.Metrics = telemetry.NewRegistry()
	a, err := app.New(rt, app.Config{
		Model: m, DType: tensor.UInt8, Delegate: tflite.DelegateNNAPI,
	})
	if err != nil {
		b.Fatal(err)
	}
	a.Init(nil)
	rt.Eng.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.ProcessFrame(nil)
		rt.Eng.Run()
	}
}

func BenchmarkARGBToYUV480p(b *testing.B) {
	scene := imaging.SyntheticScene(480, 360, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		imaging.ARGBToYUV(scene)
	}
}

// BenchmarkSimulatedInvoke measures the simulator's host-side throughput
// for one full NNAPI invocation (events processed, not virtual time).
func BenchmarkSimulatedInvoke(b *testing.B) {
	m, _ := aitax.ModelByName("MobileNet 1.0 v1")
	rt := tflite.NewStack(soc.Pixel3(), 1)
	ip, err := rt.NewInterpreter(m, tensor.UInt8, tflite.Options{Delegate: tflite.DelegateNNAPI})
	if err != nil {
		b.Fatal(err)
	}
	ip.Init(nil)
	rt.Eng.Run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip.Invoke(nil)
		rt.Eng.Run()
	}
}

var _ = time.Millisecond

// --- Extension-experiment benchmarks (beyond the paper's artifacts) ---

func BenchmarkPlatformSweep(b *testing.B) { runExperiment(b, "platforms") }
func BenchmarkPreferences(b *testing.B)   { runExperiment(b, "prefs") }
func BenchmarkThermalDrift(b *testing.B)  { runExperiment(b, "thermal") }
func BenchmarkInitTimes(b *testing.B)     { runExperiment(b, "init") }
func BenchmarkStdlibQuirk(b *testing.B)   { runExperiment(b, "stdlib") }

func BenchmarkFrameworks(b *testing.B) {
	res := runExperiment(b, "frameworks")
	// Report MobileNet's SNPE-DSP vs CPU speedup.
	for _, row := range res.Rows {
		if row[0] == "MobileNet 1.0 v1" {
			b.ReportMetric(cell(row[1])/cell(row[4]), "snpe-speedup-x")
		}
	}
}

func BenchmarkDVFSRamp(b *testing.B) {
	res := runExperiment(b, "dvfs")
	if len(res.Rows) > 0 {
		b.ReportMetric(cell(res.Rows[0][3]), "first-inference-penalty-x")
	}
}

func BenchmarkPostProcessing(b *testing.B)    { runExperiment(b, "post") }
func BenchmarkFusionAblation(b *testing.B)    { runExperiment(b, "fusion") }
func BenchmarkPreOffload(b *testing.B)        { runExperiment(b, "preoffload") }
func BenchmarkDriverFix(b *testing.B)         { runExperiment(b, "driverfix") }
func BenchmarkResolutionSweep(b *testing.B)   { runExperiment(b, "resolution") }
func BenchmarkPartitionAblation(b *testing.B) { runExperiment(b, "ablation-partitions") }
