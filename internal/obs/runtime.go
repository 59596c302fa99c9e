package obs

import (
	"runtime"

	"aitax/internal/telemetry"
)

// CollectRuntime samples Go runtime health into reg as aitax_runtime_*
// series — heap footprint, GC pressure and goroutine count — so a
// /metrics scrape of the serving frontend shows the runtime tax next to
// the serving tax. Called per scrape; ReadMemStats is a stop-the-world
// sample, cheap at scrape cadence. The GC count and pause time are
// cumulative, so they are counters raised to the runtime's totals; the
// rest are gauges.
func CollectRuntime(reg *telemetry.Registry) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	reg.Set("aitax_runtime_heap_alloc_bytes", float64(ms.HeapAlloc))
	reg.Set("aitax_runtime_heap_sys_bytes", float64(ms.HeapSys))
	reg.Set("aitax_runtime_heap_objects", float64(ms.HeapObjects))
	reg.Raise("aitax_runtime_gc_total", float64(ms.NumGC))
	reg.Raise("aitax_runtime_gc_pause_total_ms", float64(ms.PauseTotalNs)/1e6)
	reg.Set("aitax_runtime_next_gc_bytes", float64(ms.NextGC))
	reg.Set("aitax_runtime_goroutines", float64(runtime.NumGoroutine()))
}
