// AR/VR multi-model pipeline: the paper's §IV-C motivation ("an emerging
// use-case is the growing need to support multiple models running
// concurrently — hand-tracking, depth-tracking, gesture recognition in
// AR/VR. Yet most hardware today supports the execution of one model at
// a time.") Three models run concurrently on one SoC under two
// placements: spread across CPU/GPU/DSP, or stacked onto the single DSP.
//
//	go run ./examples/arpipeline
package main

import (
	"fmt"
	"log"
	"time"

	"aitax"
)

type task struct {
	label    string
	model    string
	dtype    aitax.DType
	delegate aitax.Delegate
}

// spread places each model on its own device.
func spread() []task {
	return []task{
		{"scene classification", "MobileNet 1.0 v1", aitax.UInt8, aitax.DelegateNNAPI},
		{"pose estimation", "PoseNet", aitax.Float32, aitax.DelegateGPU},
		{"object detection", "SSD MobileNet v2", aitax.UInt8, aitax.DelegateCPU},
	}
}

// stacked sends every quantized model to the one DSP (pose has no int8
// variant and stays on the GPU).
func stacked() []task {
	return []task{
		{"scene classification", "MobileNet 1.0 v1", aitax.UInt8, aitax.DelegateNNAPI},
		{"pose estimation", "PoseNet", aitax.Float32, aitax.DelegateGPU},
		{"object detection", "SSD MobileNet v2", aitax.UInt8, aitax.DelegateHexagon},
	}
}

// measure runs the given tasks concurrently (or one alone when only>=0)
// on one simulated SoC and reports steady-state inference latency.
func measure(ts []task, only int) map[string]time.Duration {
	rt := aitax.NewStack(aitax.Pixel3(), 42)
	out := make(map[string]time.Duration)
	const rounds = 20
	for i, tk := range ts {
		if only >= 0 && i != only {
			continue
		}
		tk := tk
		m, err := aitax.ModelByName(tk.model)
		if err != nil {
			log.Fatal(err)
		}
		ip, err := rt.NewInterpreter(m, tk.dtype, aitax.InterpreterOptions{Delegate: tk.delegate})
		if err != nil {
			log.Fatal(err)
		}
		ip.Init(func() {
			cold := true // skip the cold first round
			ip.InvokeWhile(func(i int) bool { return i <= rounds }, func(_ aitax.InvokeReport, d time.Duration) {
				if !cold {
					out[tk.label] += d
				}
				cold = false
			})
		})
	}
	rt.Eng.Run()
	for label := range out {
		out[label] /= rounds
	}
	return out
}

func report(title string, ts []task) {
	solo := map[string]time.Duration{}
	for i := range ts {
		for k, v := range measure(ts, i) {
			solo[k] = v
		}
	}
	together := measure(ts, -1)
	fmt.Println(title)
	fmt.Printf("  %-24s %-18s %-12s %-12s %s\n", "task", "device", "solo (ms)", "shared (ms)", "slowdown")
	for _, tk := range ts {
		s, c := solo[tk.label], together[tk.label]
		fmt.Printf("  %-24s %-18s %-12.2f %-12.2f %.2fx\n", tk.label, delegateName(tk.delegate),
			float64(s)/float64(time.Millisecond), float64(c)/float64(time.Millisecond),
			float64(c)/float64(s))
	}
	fmt.Println()
}

func delegateName(d aitax.Delegate) string {
	switch d {
	case aitax.DelegateNNAPI:
		return "NNAPI (DSP)"
	case aitax.DelegateGPU:
		return "GPU delegate"
	case aitax.DelegateHexagon:
		return "Hexagon (DSP)"
	default:
		return "CPU (4 threads)"
	}
}

func main() {
	fmt.Println("AR pipeline: three concurrent models on one simulated Pixel 3")
	fmt.Println()
	report("placement A — one model per device:", spread())
	report("placement B — detection moved onto the (single) DSP:", stacked())
	fmt.Println("the DSP serializes its clients: stacking models onto the 'fast'")
	fmt.Println("accelerator trades everyone's latency, while spreading them keeps")
	fmt.Println("mutual slowdown bounded — the paper's multi-tenancy takeaway (§IV-C).")
}
