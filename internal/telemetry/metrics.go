package telemetry

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"aitax/internal/stats"
)

// DefaultBuckets are the fixed histogram bucket upper bounds, in the
// unit the metric is observed in (milliseconds for every latency metric
// in this repository). Fixed buckets keep exported bucket rows stable
// across runs; in exact mode percentiles come from the retained
// observations, not from bucket interpolation.
var DefaultBuckets = stats.NewBounds([]float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000,
})

// series is one registry histogram: a stats.Histogram over
// DefaultBuckets and, in exact mode, every observation in insertion
// order, so quantiles are exact nearest-rank and merges deterministic.
// In streaming mode only the bucket counts (plus count/sum/min/max) are
// kept, so memory stays flat no matter how many observations arrive;
// quantiles degrade to deterministic bucket interpolation.
type series struct {
	hist   *stats.Histogram
	values []float64
	// streaming disables observation retention (see Registry streaming
	// mode). A series also turns streaming when merged from a streaming
	// source: the raw values no longer exist to retain.
	streaming bool
}

func (s *series) observe(v float64) {
	if !s.streaming {
		s.values = append(s.values, v)
	}
	s.hist.Observe(v)
}

// quantile returns the q-quantile (q in [0,1]): exact nearest-rank when
// the observations are retained, bucket-interpolated otherwise.
func (s *series) quantile(q float64) float64 {
	if s.streaming {
		return s.hist.Quantile(q)
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	return stats.NearestRank(sorted, q)
}

// Registry is a deterministic metrics store: counters, gauges, and
// fixed-bucket histograms with exact (or, in streaming mode,
// bucket-interpolated) percentiles. Metric keys are full
// series names, labels included — use Labeled to build them. All
// methods are safe on a nil *Registry (they no-op / return zero), so
// instrumented code records unconditionally. The registry is safe for
// concurrent use; determinism of the *contents* comes from the callers
// (single-threaded simulations, and the lab's submission-order merge).
type Registry struct {
	mu        sync.Mutex
	streaming bool
	counters  map[string]float64
	gauges    map[string]float64
	hists     map[string]*series
}

// NewRegistry returns an empty registry in exact mode: histograms
// retain every observation, so percentiles are exact — the right mode
// for golden-diffed simulation runs of bounded length.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]float64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*series),
	}
}

// NewStreamingRegistry returns an empty registry in streaming mode:
// histograms keep only fixed-bucket counts (plus count/sum/min/max), so
// memory stays flat under unbounded observation streams — the mode for
// long-running serving paths. Percentiles become deterministic
// bucket-interpolated estimates instead of exact ranks.
func NewStreamingRegistry() *Registry {
	r := NewRegistry()
	r.streaming = true
	return r
}

// Streaming reports whether the registry is in streaming mode.
func (r *Registry) Streaming() bool { return r != nil && r.streaming }

// escapeLabel renders a label value with Prometheus text-format
// escaping: backslash, double quote and newline become \\, \" and \n;
// every other byte passes through verbatim. Values without those three
// characters are returned unchanged (no allocation), so existing series
// names — and the goldens built from them — are byte-identical.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 8)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// Labeled builds a labelled series name: Labeled("x_ms", "stage",
// "pre") → `x_ms{stage="pre"}`. Pairs are rendered in argument order,
// keeping series names deterministic. Values are escaped per the
// Prometheus text format, so arbitrary model names (quotes, backslashes,
// newlines included) stay parseable on the wire.
func Labeled(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	if len(kv)%2 != 0 {
		panic("telemetry: Labeled needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// spliceLabel inserts an extra label into a (possibly already labelled)
// series key, and optionally a suffix onto its base name.
func spliceLabel(key, suffix, k, v string) string {
	base, labels := key, ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		base, labels = key[:i], key[i+1:len(key)-1]
	}
	extra := k + `="` + escapeLabel(v) + `"`
	if labels != "" {
		labels += "," + extra
	} else {
		labels = extra
	}
	return base + suffix + "{" + labels + "}"
}

// baseName returns the series name without labels.
func baseName(key string) string {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i]
	}
	return key
}

// Add increments a counter by v.
func (r *Registry) Add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// Raise lifts a counter to the running total v; a counter already at or
// above v is left as it is, so a counter published from a total never
// decreases, however often or concurrently it is published.
func (r *Registry) Raise(name string, v float64) {
	if r != nil {
		r.mu.Lock()
		r.counters[name] = max(r.counters[name], v)
		r.mu.Unlock()
	}
}

// Inc increments a counter by one.
func (r *Registry) Inc(name string) { r.Add(name, 1) }

// Set records a gauge value (last write wins).
func (r *Registry) Set(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.gauges[name] = v
	r.mu.Unlock()
}

// Observe records one histogram observation.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seriesLocked(name).observe(v)
	r.mu.Unlock()
}

// TouchHistogram creates the named histogram with no observations if it
// is absent, and leaves an existing one untouched. Prewarming a server's
// registry this way makes the first scrape expose the full series set
// without fabricating samples.
func (r *Registry) TouchHistogram(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seriesLocked(name)
	r.mu.Unlock()
}

// seriesLocked returns the named histogram, creating it in the
// registry's mode if absent. Caller holds r.mu.
func (r *Registry) seriesLocked(name string) *series {
	s := r.hists[name]
	if s == nil {
		s = &series{hist: stats.NewHistogram(DefaultBuckets), streaming: r.streaming}
		r.hists[name] = s
	}
	return s
}

// Counter returns a counter's value (0 when absent or on nil).
func (r *Registry) Counter(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge returns a gauge's value (0 when absent or on nil).
func (r *Registry) Gauge(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauges[name]
}

// Count returns a histogram's observation count.
func (r *Registry) Count(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return 0
	}
	return h.hist.Count()
}

// Sum returns a histogram's observation sum (0 when absent or on nil).
func (r *Registry) Sum(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return 0
	}
	return h.hist.Sum()
}

// Quantile returns a histogram's q-quantile: exact nearest-rank, or
// bucket-interpolated for a streaming series (0 when absent or empty).
func (r *Registry) Quantile(name string, q float64) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		return 0
	}
	return h.quantile(q)
}

// CounterNames returns the counter series names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return sortedKeys(r.counters)
}

// Merge folds other into r: counters add, gauges take other's value,
// histograms concatenate observations in other's insertion order.
// Merging the same registries in the same order always reproduces the
// same state — the lab merges per-job registries in submission order to
// keep sweep aggregates parallelism-independent.
//
// Streaming degrades but never lies: merging into a streaming registry,
// or merging from a streaming histogram (whose raw values no longer
// exist), leaves the destination histogram in streaming mode — bucket
// counts add exactly, quantiles become interpolated estimates.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	other.mu.Lock()
	defer other.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range sortedKeys(other.counters) {
		r.counters[k] += other.counters[k]
	}
	for _, k := range sortedKeys(other.gauges) {
		r.gauges[k] = other.gauges[k]
	}
	for _, k := range sortedKeys(other.hists) {
		oh, h := other.hists[k], r.seriesLocked(k)
		h.streaming = h.streaming || oh.streaming
		if h.streaming {
			h.values = nil
		} else {
			h.values = append(h.values, oh.values...)
		}
		h.hist.Merge(oh.hist)
	}
}

// sortedKeys returns a map's keys, sorted.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// formatFloat renders a metric value with the shortest exact
// representation, matching Prometheus text-format conventions.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
