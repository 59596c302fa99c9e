package tflite

import (
	"aitax/internal/models"
	"aitax/internal/plan"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

// AllDelegates lists every delegate in declaration order, for grid
// enumeration.
var AllDelegates = []Delegate{DelegateCPU, DelegateGPU, DelegateHexagon, DelegateNNAPI}

// GridDTypes are the two precisions the Table-I support matrix spans.
var GridDTypes = []tensor.DType{tensor.Float32, tensor.Int8}

// Supported mirrors NewInterpreter's Table-I validation without
// building anything: it reports whether the (model, dtype, delegate)
// combination can compile. Prewarm passes use it to enumerate only
// combinations that would build.
func Supported(m *models.Model, dt tensor.DType, d Delegate) bool {
	quant := dt == tensor.Int8 || dt == tensor.UInt8
	if quant && !m.Quantizable() {
		return false
	}
	if !m.Support.Supports(d == DelegateNNAPI, dt) {
		return false
	}
	if d == DelegateHexagon && !quant {
		return false
	}
	return true
}

// PrewarmJobs enumerates one compile job per supported (platform, model,
// dtype, delegate) combination. Each job builds a throwaway stack whose
// plan cache is c, constructs the interpreter (which compiles the
// partition plan and op-cost schedules into the cache), and for NNAPI
// additionally runs the framework's compile step; the stack itself is
// discarded, only the cached plans survive. Plans are pure functions of
// the key, so warming them can never change simulation results.
func PrewarmJobs(c *plan.Cache, platforms []*soc.SoC, ms []*models.Model,
	dts []tensor.DType, dels []Delegate) []plan.Job {
	var jobs []plan.Job
	for _, p := range platforms {
		rt := NewStack(p, 0)
		rt.Plans = c
		for _, m := range ms {
			for _, dt := range dts {
				for _, d := range dels {
					if !Supported(m, dt, d) {
						continue
					}
					m, dt, d := m, dt, d
					jobs = append(jobs, plan.Job{Compile: func() {
						ip, err := rt.NewInterpreter(m, dt, Options{Delegate: d})
						if err != nil {
							return
						}
						if d == DelegateNNAPI {
							// Segment plans for direct delegates compile in
							// NewInterpreter; NNAPI partitions at Init.
							ip.Init(nil)
						}
					}})
				}
			}
		}
	}
	return jobs
}

// Prewarm compiles the full Table-I model×platform×dtype×delegate grid
// into the process-shared plan cache and reports what the pass cost —
// the cold-start AI tax moved from first inferences to startup.
func Prewarm(platforms []*soc.SoC, ms []*models.Model) plan.Report {
	return plan.Shared.Prewarm(PrewarmJobs(plan.Shared, platforms, ms, GridDTypes, AllDelegates))
}
