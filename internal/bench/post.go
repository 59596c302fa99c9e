package bench

import (
	"fmt"
	"sort"

	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// PostProcessing tabulates the app-side post-processing cost per model —
// the §IV-A observation that "most results suggest post-processing
// latency is negligible (sub-millisecond per inference)" while
// "segmentation and object detection show that applications require
// significant additional work on the model output".
func PostProcessing(cfg Config, p *Planner) func() *Result {
	var fp32 []*models.Model
	var samples []*Sample
	for _, m := range models.All() {
		if m.Support.NNAPIFP32 {
			fp32 = append(fp32, m)
			samples = append(samples, p.app(Run{Platform: cfg.Platform.Name, Seed: cfg.Seed, DType: tensor.Float32, Delegate: tflite.DelegateNNAPI, N: cfg.Runs / 2}, m))
		}
	}
	return func() *Result {
		r := &Result{
			ID:      "post",
			Title:   "Post-processing latency by task (application, fp32 via NNAPI)",
			Headers: []string{"Model", "Task", "post (ms)", "share of e2e"},
		}
		type row struct {
			name, task string
			post       float64
			share      float64
		}
		var rows []row
		var classMax, segLike float64
		for i, m := range fp32 {
			smp := samples[i]
			if smp.Err != nil {
				continue
			}
			mean := smp.Mean
			post := ms(mean.Stage[core.StagePost])
			share := float64(mean.Stage[core.StagePost]) / float64(mean.Total)
			rows = append(rows, row{m.Name, string(m.Task), post, share})
			switch m.Task {
			case models.Classification, models.FaceRecognition:
				if post > classMax {
					classMax = post
				}
			case models.Segmentation:
				segLike = post
			}
		}
		sort.Slice(rows, func(a, b int) bool { return rows[a].post > rows[b].post })
		for _, rr := range rows {
			r.AddRow(rr.name, rr.task, fmt.Sprintf("%.3f", rr.post),
				fmt.Sprintf("%.2f%%", 100*rr.share))
		}
		if classMax < 0.2 && segLike > 5*classMax {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"shape check PASS: classification post <= %.3f ms (sub-ms, §IV-A) while mask flattening costs %.2f ms",
				classMax, segLike))
		} else {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"shape check FAIL: classification max %.3f ms vs segmentation %.2f ms", classMax, segLike))
		}
		return r
	}
}
