package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"

	"aitax/internal/stats"
)

// Row is one closed aggregation window, the unit of the time-series
// export: every JSONL line, Chrome counter sample and SLO burn-rate
// evaluation derives from a Row. Maps keep export deterministic
// (encoding/json sorts map keys).
type Row struct {
	// Index is the window's ordinal: the window covers
	// [Index*width, (Index+1)*width).
	Index int `json:"window"`
	// StartMS / EndMS are the window bounds in milliseconds from the
	// recorder's time origin (virtual time in the simulator, time since
	// server start on the HTTP path).
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	// Counters holds the window's counter sums; only series touched in
	// this window appear.
	Counters map[string]float64 `json:"counters,omitempty"`
	// Hists holds the window's histogram summaries.
	Hists map[string]stats.HistSummary `json:"hists,omitempty"`
}

// RecorderConfig fixes a recorder's windowing policy.
type RecorderConfig struct {
	// Window is the aggregation window width. Zero means 250ms.
	Window time.Duration
	// Keep is how many windows stay resident (the ring size); windows
	// older than that are closed and handed to OnClose. Zero means 64.
	Keep int
	// Bounds are the histogram bucket bounds (nil = DefaultBounds).
	Bounds []float64
	// OnClose, when set, receives every closed window in index order:
	// the streaming export hook (JSONL writer, SLO monitor, Chrome
	// counter tracks). Windows a run never observed into are skipped.
	OnClose func(Row)
}

func (c RecorderConfig) withDefaults() RecorderConfig {
	if c.Window <= 0 {
		c.Window = 250 * time.Millisecond
	}
	if c.Keep <= 0 {
		c.Keep = 64
	}
	if c.Bounds == nil {
		c.Bounds = DefaultBounds
	}
	return c
}

// counterRing is one counter series' ring of window cells. tag[i] names
// the window index occupying cell i, so stale cells are detected and
// lazily zeroed instead of sweeping the ring on every advance.
type counterRing struct {
	vals []float64
	tag  []int
}

// histRing is one histogram series' ring of window cells.
type histRing struct {
	hists []*stats.Histogram
	tag   []int
}

// Recorder aggregates observations into fixed-width time windows held
// in a bounded ring: the streaming time-series store behind the
// dashboard, the SLO monitor and the JSONL/Perfetto exports. Memory is
// flat — Keep windows per series, fixed-bucket histograms — no matter
// how long the run. Steady-state recording into existing series does
// not allocate. Safe for concurrent use; determinism of the contents
// comes from deterministic inputs (the simulator replays outcomes in a
// fixed order).
type Recorder struct {
	cfg RecorderConfig

	mu       sync.Mutex
	head     int // highest window index observed; -1 before first obs
	closedTo int // windows below this have been closed (or skipped)
	counters map[string]*counterRing
	hists    map[string]*histRing
	names    []string // sorted union of series names, rebuilt when dirty
	dirty    bool
	dropped  int64 // observations older than the ring
}

// NewRecorder returns an empty recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:      cfg,
		head:     -1,
		counters: make(map[string]*counterRing),
		hists:    make(map[string]*histRing),
	}
}

// Window returns the configured window width.
func (r *Recorder) Window() time.Duration { return r.cfg.Window }

// Dropped reports observations discarded for being older than the ring.
func (r *Recorder) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// windowIndex maps a timestamp to its window ordinal.
func (r *Recorder) windowIndex(at time.Duration) int {
	if at < 0 {
		return 0
	}
	return int(at / r.cfg.Window)
}

// advance moves the ring head to idx, closing every window that falls
// off the back. Caller holds r.mu.
func (r *Recorder) advance(idx int) {
	if idx <= r.head {
		return
	}
	// Windows < idx-Keep+1 can no longer take observations: close the
	// ones that ever held data ([closedTo, head]); the gap beyond head
	// (idle time) was never populated and is skipped.
	firstLive := idx - r.cfg.Keep + 1
	if firstLive > r.closedTo {
		if r.cfg.OnClose != nil {
			last := min(firstLive-1, r.head)
			for w := r.closedTo; w <= last; w++ {
				if row, ok := r.buildRowLocked(w); ok {
					r.cfg.OnClose(row)
				}
			}
		}
		r.closedTo = firstLive
	}
	r.head = idx
}

// Add accumulates v into the named counter series for the window
// containing at.
func (r *Recorder) Add(at time.Duration, name string, v float64) {
	idx := r.windowIndex(at)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advance(idx)
	if idx < r.head-r.cfg.Keep+1 || idx < r.closedTo {
		r.dropped++
		return
	}
	c := r.counters[name]
	if c == nil {
		c = &counterRing{vals: make([]float64, r.cfg.Keep), tag: make([]int, r.cfg.Keep)}
		for i := range c.tag {
			c.tag[i] = -1
		}
		r.counters[name] = c
		r.dirty = true
	}
	slot := idx % r.cfg.Keep
	if c.tag[slot] != idx {
		c.tag[slot] = idx
		c.vals[slot] = 0
	}
	c.vals[slot] += v
}

// Observe records v into the named histogram series for the window
// containing at.
func (r *Recorder) Observe(at time.Duration, name string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h := r.histSlotLocked(at, name); h != nil {
		h.Observe(v)
	} else {
		r.dropped++
	}
}

// Touch creates the named histogram series (with an empty histogram in
// at's window) without recording an observation, so a prewarmed
// harness's first window carries the full series set instead of being
// an outlier missing most of it. Existing series are left untouched.
func (r *Recorder) Touch(at time.Duration, name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.histSlotLocked(at, name)
}

// histSlotLocked advances the ring to at's window and returns the named
// series' histogram for that window, creating the series or recycling a
// stale slot as needed; nil when the window is older than the ring.
// Caller holds r.mu.
func (r *Recorder) histSlotLocked(at time.Duration, name string) *stats.Histogram {
	idx := r.windowIndex(at)
	r.advance(idx)
	if idx < r.head-r.cfg.Keep+1 || idx < r.closedTo {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &histRing{hists: make([]*stats.Histogram, r.cfg.Keep), tag: make([]int, r.cfg.Keep)}
		for i := range h.tag {
			h.tag[i] = -1
		}
		r.hists[name] = h
		r.dirty = true
	}
	slot := idx % r.cfg.Keep
	if h.tag[slot] != idx {
		h.tag[slot] = idx
		if h.hists[slot] == nil {
			h.hists[slot] = stats.NewHistogram(r.cfg.Bounds)
		} else {
			h.hists[slot].Reset()
		}
	}
	return h.hists[slot]
}

// sortedNamesLocked returns the union of series names, sorted.
func (r *Recorder) sortedNamesLocked() []string {
	if r.dirty {
		r.names = r.names[:0]
		for k := range r.counters {
			r.names = append(r.names, k)
		}
		for k := range r.hists {
			r.names = append(r.names, k)
		}
		sort.Strings(r.names)
		r.dirty = false
	}
	return r.names
}

// buildRowLocked assembles the export row for window w; ok is false
// when no series observed into w.
func (r *Recorder) buildRowLocked(w int) (Row, bool) {
	slot := w % r.cfg.Keep
	row := Row{
		Index:   w,
		StartMS: float64(w) * float64(r.cfg.Window) / float64(time.Millisecond),
		EndMS:   float64(w+1) * float64(r.cfg.Window) / float64(time.Millisecond),
	}
	for _, name := range r.sortedNamesLocked() {
		if c, ok := r.counters[name]; ok && c.tag[slot] == w {
			if row.Counters == nil {
				row.Counters = make(map[string]float64)
			}
			row.Counters[name] = c.vals[slot]
		}
		if h, ok := r.hists[name]; ok && h.tag[slot] == w && h.hists[slot].Count() > 0 {
			if row.Hists == nil {
				row.Hists = make(map[string]stats.HistSummary)
			}
			row.Hists[name] = h.hists[slot].Summary()
		}
	}
	return row, row.Counters != nil || row.Hists != nil
}

// Flush closes every remaining window in index order. Call once at the
// end of a run (the simulator) or at server shutdown; the recorder
// remains usable, but flushed windows reject late observations.
func (r *Recorder) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cfg.OnClose != nil {
		for w := r.closedTo; w <= r.head; w++ {
			if row, ok := r.buildRowLocked(w); ok {
				r.cfg.OnClose(row)
			}
		}
	}
	r.closedTo = r.head + 1
}

// MergedHist merges the named histogram series over the lastN live
// windows (ending at the head) into one histogram — the rolling
// percentile read the dashboard uses. Always returns a histogram,
// possibly empty.
func (r *Recorder) MergedHist(name string, lastN int) *stats.Histogram {
	out := stats.NewHistogram(r.cfg.Bounds)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok || r.head < 0 {
		return out
	}
	for w := max(r.head-lastN+1, 0); w <= r.head; w++ {
		slot := w % r.cfg.Keep
		if h.tag[slot] == w {
			out.Merge(h.hists[slot])
		}
	}
	return out
}

// SumCounter sums the named counter series over the lastN live windows
// ending at the head.
func (r *Recorder) SumCounter(name string, lastN int) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok || r.head < 0 {
		return 0
	}
	var sum float64
	for w := max(r.head-lastN+1, 0); w <= r.head; w++ {
		slot := w % r.cfg.Keep
		if c.tag[slot] == w {
			sum += c.vals[slot]
		}
	}
	return sum
}

// RecentQuantiles returns the named series' q-quantile per window for
// the lastN windows ending at the head, oldest first — the dashboard's
// trend sparkline. Empty windows yield 0.
func (r *Recorder) RecentQuantiles(name string, q float64, lastN int) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, 0, lastN)
	h, ok := r.hists[name]
	if r.head < 0 {
		return out
	}
	for w := max(r.head-lastN+1, 0); w <= r.head; w++ {
		v := 0.0
		if ok {
			slot := w % r.cfg.Keep
			if h.tag[slot] == w {
				v = h.hists[slot].Quantile(q)
			}
		}
		out = append(out, v)
	}
	return out
}

// WriteRowJSONL encodes one row as a JSONL line — the OnClose sink the
// CLI wires to the -obs export file.
func WriteRowJSONL(w io.Writer, row Row) error {
	return json.NewEncoder(w).Encode(row)
}
