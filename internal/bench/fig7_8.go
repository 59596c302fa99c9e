package bench

import (
	"fmt"
	"time"

	"aitax/internal/fastrpc"
	"aitax/internal/models"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
	"aitax/internal/work"
)

// Figure7 regenerates the paper's Fig. 7: the FastRPC call flow between
// CPU and DSP, itemized by boundary crossing, plus the one-time session
// setup.
func Figure7(cfg Config) *Result {
	rt := cfg.stack()
	ch := fastrpc.NewChannel(rt.Eng, rt.Platform.RPC, rt.DSP)

	m, _ := models.ByName("MobileNet 1.0 v1")
	payload := int64(m.InputW*m.InputH*3 + m.NumClasses)

	r := &Result{
		ID:      "fig7",
		Title:   "FastRPC call flow for the Qualcomm DSP",
		Headers: []string{"Stage", "Cost"},
	}
	r.AddRow("session setup (once: map DSP into process)", ch.SetupCost().String())
	var perCall time.Duration
	for _, st := range ch.CallStages(payload) {
		r.AddRow(st.Name, st.Duration.String())
		perCall += st.Duration
	}
	r.AddRow("total per-call transport", perCall.String())
	r.Notes = append(r.Notes,
		"the cache flush maintains coherency for the shared buffer, as Fig. 7 highlights",
		fmt.Sprintf("payload modeled: %d KB of boundary activations", payload/1024))
	return r
}

// Figure8 regenerates the paper's Fig. 8: offload-overhead amortization
// over consecutive inferences through the Hexagon delegate. For one
// inference the session setup dominates; over hundreds it vanishes.
func Figure8(cfg Config) *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	r := &Result{
		ID:    "fig8",
		Title: "Offload overhead amortization over consecutive inferences (MobileNet v1 int8, Hexagon)",
		Headers: []string{"Inferences", "offload total (ms)", "exec total (ms)",
			"offload share", "mean latency (ms)"},
	}
	counts := []int{1, 2, 5, 10, 20, 50, 100, 200, 500}
	var first, last float64
	for _, n := range counts {
		rt := cfg.stack()
		ip, err := rt.NewInterpreter(m, tensor.UInt8, tflite.Options{Delegate: tflite.DelegateHexagon})
		if err != nil {
			r.Notes = append(r.Notes, "setup failed: "+err.Error())
			return r
		}
		var offload, exec time.Duration
		ip.Init(func() {
			ip.InvokeWhile(func(i int) bool { return i < n }, func(rep tflite.Report, _ time.Duration) {
				offload += rep.RPC
				exec += rep.Exec
			})
		})
		rt.Eng.Run()
		share := float64(offload) / float64(offload+exec)
		if n == counts[0] {
			first = share
		}
		last = share
		r.AddRow(n, msf(offload), msf(exec),
			fmt.Sprintf("%.1f%%", 100*share),
			fmt.Sprintf("%.2f", ms(offload+exec)/float64(n)))
	}
	if first > 0.5 && last < 0.15 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check PASS: offload share falls from %.0f%% at 1 inference to %.1f%% at 500 (paper Fig. 8)",
			100*first, 100*last))
	} else {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check FAIL: offload share %.0f%% -> %.1f%%", 100*first, 100*last))
	}
	r.Notes = append(r.Notes,
		"the DSP session setup is performed once and amortizes across subsequent inferences (§IV-C)")
	return r
}

// ColdStart isolates §IV-C's cold-start penalty: the first accelerated
// inference versus a warm one, broken down.
func ColdStart(cfg Config) *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	r := &Result{
		ID:      "coldstart",
		Title:   "Cold start: first vs warm DSP inference (MobileNet v1 int8)",
		Headers: []string{"Invocation", "setup (ms)", "transport (ms)", "exec (ms)", "total (ms)"},
	}
	rt := cfg.stack()
	ch := fastrpc.NewChannel(rt.Eng, rt.Platform.RPC, rt.DSP)
	execTime := rt.Platform.DSP.TimeFor(sumWork(m), tensor.UInt8)
	payload := int64(m.InputW*m.InputH*3 + m.NumClasses)

	var cold, warm fastrpc.Breakdown
	ch.Invoke(payload, execTime, func(b fastrpc.Breakdown) {
		cold = b
		ch.Invoke(payload, execTime, func(b2 fastrpc.Breakdown) { warm = b2 })
	})
	rt.Eng.Run()
	for _, row := range []struct {
		label string
		b     fastrpc.Breakdown
	}{{"first (cold)", cold}, {"second (warm)", warm}} {
		r.AddRow(row.label, msf(row.b.Setup), msf(row.b.Transport), msf(row.b.Exec), msf(row.b.Total()))
	}
	r.AddRow("cold/warm ratio", "", "", "",
		fmt.Sprintf("%.1fx", float64(cold.Total())/float64(warm.Total())))
	r.Notes = append(r.Notes,
		"benchmarks that allow warm-up hide this penalty from end users (§IV-C)")
	return r
}

// sumWork aggregates a model's total op work.
func sumWork(m *models.Model) work.Work {
	w := work.Work{Vectorizable: true}
	for _, op := range m.Graph.Ops() {
		w = w.Add(op.Work(tensor.UInt8))
	}
	return w
}
