package bench

import (
	"context"
	"fmt"
	"time"

	"aitax/internal/app"
	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msf(d time.Duration) string { return fmt.Sprintf("%.2f", ms(d)) }

// variantName labels a (model, dtype) pair the way the paper's figures
// do ("MobileNet 1.0 v1-int8").
func variantName(m *models.Model, dt tensor.DType) string {
	if dt == tensor.Float32 {
		return m.Name + "-fp32"
	}
	return m.Name + "-int8"
}

// figureModels returns the (model, dtype) variants the latency figures
// sweep: every Table-I model in each precision it supports on the given
// path.
func figureModels(nnapiPath bool) []struct {
	M  *models.Model
	DT tensor.DType
} {
	var out []struct {
		M  *models.Model
		DT tensor.DType
	}
	for _, m := range models.All() {
		for _, dt := range []tensor.DType{tensor.Float32, tensor.UInt8} {
			if m.Support.Supports(nnapiPath, dt) {
				out = append(out, struct {
					M  *models.Model
					DT tensor.DType
				}{m, dt})
			}
		}
	}
	return out
}

// benchToolRun executes the TFLite benchmark utility (or its app
// wrapper) for n measured runs and returns the samples. Experiments
// measure under context.Background(): a run always completes, and it
// reports no simulated time to the lab job it runs in.
func benchToolRun(platform *soc.SoC, seed uint64, m *models.Model, dt tensor.DType,
	delegate tflite.Delegate, threads, n int, appWrapper bool) ([]tflite.RunSample, error) {

	rt := tflite.NewStack(clonePlatform(platform), seed)
	ip, err := rt.NewInterpreter(m, dt, tflite.Options{Delegate: delegate, Threads: threads})
	if err != nil {
		return nil, err
	}
	bt := tflite.NewBenchTool(rt, ip)
	bt.AppWrapper = appWrapper
	return bt.Measure(context.Background(), n)
}

// warmupFrames are the cold-start app frames every experiment discards
// (plan compilation, cache fill).
const warmupFrames = 2

// appRun executes the instrumented application with bgJobs background
// tenants on bgDelegate and returns its steady-state frame breakdowns.
func appRun(platform *soc.SoC, seed uint64, m *models.Model, dt tensor.DType,
	delegate tflite.Delegate, frames, bgJobs int, bgDelegate tflite.Delegate) ([]app.FrameStats, error) {

	rt := tflite.NewStack(clonePlatform(platform), seed)
	a, err := app.New(rt, app.Config{Model: m, DType: dt, Delegate: delegate, Streaming: true})
	if err != nil {
		return nil, err
	}
	return a.Measure(context.Background(), warmupFrames, frames, bgJobs, bgDelegate)
}

// meanSample averages benchmark-tool samples.
func meanSample(samples []tflite.RunSample) tflite.RunSample {
	var sum tflite.RunSample
	if len(samples) == 0 {
		return sum
	}
	for _, s := range samples {
		sum.DataCapture += s.DataCapture
		sum.Pre += s.Pre
		sum.Inference += s.Inference
		sum.UI += s.UI
		sum.Total += s.Total
	}
	n := time.Duration(len(samples))
	sum.DataCapture /= n
	sum.Pre /= n
	sum.Inference /= n
	sum.UI /= n
	sum.Total /= n
	return sum
}

// meanFrames averages app frame breakdowns.
func meanFrames(frames []app.FrameStats) app.FrameStats {
	var sum app.FrameStats
	if len(frames) == 0 {
		return sum
	}
	for _, f := range frames {
		sum.Capture += f.Capture
		sum.Pre += f.Pre
		sum.Inference += f.Inference
		sum.Post += f.Post
		sum.UI += f.UI
		sum.Total += f.Total
		sum.Retry += f.Retry
		sum.Fallback += f.Fallback
	}
	n := time.Duration(len(frames))
	sum.Capture /= n
	sum.Pre /= n
	sum.Inference /= n
	sum.Post /= n
	sum.UI /= n
	sum.Total /= n
	sum.Retry /= n
	sum.Fallback /= n
	return sum
}

// clonePlatform re-derives a fresh platform value so experiments cannot
// leak state through shared device structs.
func clonePlatform(p *soc.SoC) *soc.SoC {
	fresh, err := soc.PlatformByName(p.Name)
	if err != nil {
		cp := *p
		return &cp
	}
	return fresh
}
