package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format: counters, then gauges, then histograms (with
// cumulative _bucket rows over the fixed bounds, _sum and _count), each
// histogram followed by p50/p90/p99 gauges suffixed _p50/_p90/_p99 —
// exact nearest-rank in exact mode, bucket-interpolated estimates for
// streaming series. Series are sorted by name, so output is byte-stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	bw := bufio.NewWriter(w)

	lastType := ""
	emitType := func(base, typ string) {
		if base != lastType {
			fmt.Fprintf(bw, "# TYPE %s %s\n", base, typ)
			lastType = base
		}
	}
	for _, k := range sortedKeys(r.counters) {
		emitType(baseName(k), "counter")
		fmt.Fprintf(bw, "%s %s\n", k, formatFloat(r.counters[k]))
	}
	for _, k := range sortedKeys(r.gauges) {
		emitType(baseName(k), "gauge")
		fmt.Fprintf(bw, "%s %s\n", k, formatFloat(r.gauges[k]))
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		emitType(baseName(k), "histogram")
		counts := h.hist.Counts()
		cum := int64(0)
		for i, ub := range DefaultBuckets.Values() {
			cum += counts[i]
			fmt.Fprintf(bw, "%s %d\n", spliceLabel(k, "_bucket", "le", formatFloat(ub)), cum)
		}
		cum += counts[len(counts)-1]
		fmt.Fprintf(bw, "%s %d\n", spliceLabel(k, "_bucket", "le", "+Inf"), cum)
		fmt.Fprintf(bw, "%s %s\n", suffixed(k, "_sum"), formatFloat(h.hist.Sum()))
		fmt.Fprintf(bw, "%s %d\n", suffixed(k, "_count"), h.hist.Count())
		for _, q := range []struct {
			suffix string
			q      float64
		}{{"_p50", 0.5}, {"_p90", 0.9}, {"_p99", 0.99}} {
			fmt.Fprintf(bw, "%s %s\n", suffixed(k, q.suffix), formatFloat(h.quantile(q.q)))
		}
	}
	return bw.Flush()
}

// suffixed appends a suffix to a series' base name, preserving labels.
func suffixed(key, suffix string) string {
	base := baseName(key)
	return base + suffix + key[len(base):]
}

// HistogramJSON is a histogram's JSON export shape.
type HistogramJSON struct {
	Count   int64            `json:"count"`
	Sum     float64          `json:"sum"`
	Min     float64          `json:"min"`
	Max     float64          `json:"max"`
	P50     float64          `json:"p50"`
	P90     float64          `json:"p90"`
	P99     float64          `json:"p99"`
	Buckets map[string]int64 `json:"buckets"`
}

// RegistryJSON is the registry's JSON export shape.
type RegistryJSON struct {
	Counters   map[string]float64       `json:"counters"`
	Gauges     map[string]float64       `json:"gauges"`
	Histograms map[string]HistogramJSON `json:"histograms"`
}

// Snapshot returns the registry's JSON export shape (empty, non-nil
// maps on a nil registry).
func (r *Registry) Snapshot() RegistryJSON {
	out := RegistryJSON{
		Counters:   map[string]float64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramJSON{},
	}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		out.Counters[k] = v
	}
	for k, v := range r.gauges {
		out.Gauges[k] = v
	}
	for k, h := range r.hists {
		hj := HistogramJSON{
			Count:   h.hist.Count(),
			Sum:     h.hist.Sum(),
			Min:     h.hist.Min(),
			Max:     h.hist.Max(),
			P50:     h.quantile(0.5),
			P90:     h.quantile(0.9),
			P99:     h.quantile(0.99),
			Buckets: map[string]int64{},
		}
		counts := h.hist.Counts()
		for i, ub := range DefaultBuckets.Values() {
			hj.Buckets["le:"+formatFloat(ub)] = counts[i]
		}
		hj.Buckets["le:+Inf"] = counts[len(counts)-1]
		out.Histograms[k] = hj
	}
	return out
}

// WriteJSON renders the registry as a single JSON document
// (encoding/json sorts map keys, so output is byte-stable).
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// spanJSONL is the JSONL export shape of one span.
type spanJSONL struct {
	ID        int64             `json:"id"`
	Parent    int64             `json:"parent,omitempty"`
	Name      string            `json:"name"`
	Component string            `json:"component"`
	Track     string            `json:"track"`
	StartNS   int64             `json:"start_ns"`
	DurNS     int64             `json:"dur_ns"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// WriteSpansJSONL writes one JSON object per span, in span order — the
// machine-readable sink for external analysis pipelines.
func WriteSpansJSONL(w io.Writer, spans []Span) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		row := spanJSONL{
			ID:        s.ID,
			Parent:    s.Parent,
			Name:      s.Name,
			Component: s.Component,
			Track:     s.Track.String(),
			StartNS:   s.Start.Nanoseconds(),
			DurNS:     int64(s.Duration()),
		}
		if len(s.Attrs) > 0 {
			row.Attrs = make(map[string]string, len(s.Attrs))
			for _, a := range s.Attrs {
				row.Attrs[a.Key] = a.Value
			}
		}
		if err := enc.Encode(row); err != nil {
			return err
		}
	}
	return bw.Flush()
}
