package obs

import (
	"encoding/json"
	"io"
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
	Bounds *stats.Bounds
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

// ring is one series' window cells: a counter's sums in vals, or a
// histogram's in hists. tag[i] names the window index occupying cell
// i, so stale cells are detected and lazily reset instead of sweeping
// the ring on every advance.
type ring struct {
	name  string
	vals  []float64
	hists []*stats.Histogram
	tag   []int
}

// seriesKey names a series: a counter and a histogram may share a name.
type seriesKey struct {
	name string
	hist bool
}

// Recorder aggregates observations into fixed-width time windows held
// in a bounded ring: the streaming time-series store behind the
// dashboard, the SLO monitor and the JSONL/Perfetto exports. Memory is
// flat — Keep windows per series, fixed-bucket histograms — no matter
// how long the run. Steady-state recording into existing series does
// not allocate. Safe for concurrent use; determinism of the contents
// comes from deterministic inputs (the simulator records its events in
// a fixed order).
type Recorder struct {
	cfg RecorderConfig

	mu       sync.Mutex
	head     int // highest window index observed; -1 before first obs
	closedTo int // windows below this have been closed (or skipped)
	// series is indexed by handle; index resolves names to handles.
	series  []ring
	index   map[seriesKey]int
	dropped int64 // observations older than the ring
}

// Counter is a handle to one counter series of a Recorder: recording
// through it does no name lookup.
type Counter struct {
	r *Recorder
	i int
}

// Hist is a handle to one histogram series of a Recorder.
type Hist struct {
	r *Recorder
	i int
}

// NewRecorder returns an empty recorder.
func NewRecorder(cfg RecorderConfig) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:   cfg,
		head:  -1,
		index: make(map[seriesKey]int),
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

// Counter returns the handle of the named counter series, creating the
// series if absent. A new series holds no data until recorded into.
func (r *Recorder) Counter(name string) Counter {
	return Counter{r, r.resolve(seriesKey{name, false})}
}

// Hist returns the handle of the named histogram series, creating the
// series if absent.
func (r *Recorder) Hist(name string) Hist {
	return Hist{r, r.resolve(seriesKey{name, true})}
}

func (r *Recorder) resolve(k seriesKey) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[k]
	if !ok {
		i = len(r.series)
		s := ring{name: k.name, tag: make([]int, r.cfg.Keep)}
		for j := range s.tag {
			s.tag[j] = -1
		}
		if k.hist {
			s.hists = make([]*stats.Histogram, r.cfg.Keep)
		} else {
			s.vals = make([]float64, r.cfg.Keep)
		}
		r.series = append(r.series, s)
		r.index[k] = i
	}
	return i
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

// cellLocked advances the ring to at's window and returns series i's
// cell for it, reset if it held an older window; ok is false when the
// window is older than the ring. Caller holds r.mu.
func (r *Recorder) cellLocked(at time.Duration, i int) (s *ring, slot int, ok bool) {
	idx := r.windowIndex(at)
	r.advance(idx)
	if idx < r.head-r.cfg.Keep+1 || idx < r.closedTo {
		return nil, 0, false
	}
	s, slot = &r.series[i], idx%r.cfg.Keep
	if s.tag[slot] != idx {
		s.tag[slot] = idx
		switch {
		case s.vals != nil:
			s.vals[slot] = 0
		case s.hists[slot] == nil:
			s.hists[slot] = stats.NewHistogram(r.cfg.Bounds)
		default:
			s.hists[slot].Reset()
		}
	}
	return s, slot, true
}

// Add accumulates v into the named counter series for the window
// containing at.
func (r *Recorder) Add(at time.Duration, name string, v float64) {
	r.Counter(name).Add(at, v)
}

// Observe records v into the named histogram series for the window
// containing at.
func (r *Recorder) Observe(at time.Duration, name string, v float64) {
	r.Hist(name).Observe(at, v)
}

// Add accumulates v into the counter for the window containing at.
func (c Counter) Add(at time.Duration, v float64) {
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	if s, slot, ok := c.r.cellLocked(at, c.i); ok {
		s.vals[slot] += v
	} else {
		c.r.dropped++
	}
}

// Observe records v into the histogram for the window containing at.
func (h Hist) Observe(at time.Duration, v float64) {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	if s, slot, ok := h.r.cellLocked(at, h.i); ok {
		s.hists[slot].Observe(v)
	} else {
		h.r.dropped++
	}
}

// Touch gives the histogram an empty cell for at's window without
// recording an observation, so a prewarmed harness's first window
// carries the full series set instead of being an outlier missing most
// of it. A cell already holding observations is left as it is.
func (h Hist) Touch(at time.Duration) {
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	h.r.cellLocked(at, h.i)
}

// buildRowLocked assembles the export row for window w; ok is false
// when no series observed into w. The row's maps are sized once, from a
// first pass over the series.
func (r *Recorder) buildRowLocked(w int) (Row, bool) {
	slot := w % r.cfg.Keep
	row := Row{
		Index:   w,
		StartMS: float64(w) * float64(r.cfg.Window) / float64(time.Millisecond),
		EndMS:   float64(w+1) * float64(r.cfg.Window) / float64(time.Millisecond),
	}
	// A row holds the counters touched in w and the histograms
	// observed into it.
	nc, nh := 0, 0
	for i := range r.series {
		switch s := &r.series[i]; {
		case s.tag[slot] != w:
		case s.vals != nil:
			nc++
		case s.hists[slot].Count() > 0:
			nh++
		}
	}
	if nc > 0 {
		row.Counters = make(map[string]float64, nc)
	}
	if nh > 0 {
		row.Hists = make(map[string]stats.HistSummary, nh)
	}
	for i := range r.series {
		switch s := &r.series[i]; {
		case s.tag[slot] != w:
		case s.vals != nil:
			row.Counters[s.name] = s.vals[slot]
		case s.hists[slot].Count() > 0:
			row.Hists[s.name] = s.hists[slot].Summary()
		}
	}
	return row, nc+nh > 0
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

// recent calls f for each of the lastN windows ending at the head,
// oldest first, with the named series' cell for it: s is nil where the
// series holds no data for the window.
func (r *Recorder) recent(k seriesKey, lastN int, f func(s *ring, slot int)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	i, ok := r.index[k]
	for w := max(r.head-lastN+1, 0); w <= r.head; w++ {
		var s *ring
		slot := w % r.cfg.Keep
		if ok && r.series[i].tag[slot] == w {
			s = &r.series[i]
		}
		f(s, slot)
	}
}

// MergedHist merges the named histogram series over the lastN live
// windows (ending at the head) into one histogram — the rolling
// percentile read the dashboard uses. Always returns a histogram,
// possibly empty.
func (r *Recorder) MergedHist(name string, lastN int) *stats.Histogram {
	out := stats.NewHistogram(r.cfg.Bounds)
	r.recent(seriesKey{name, true}, lastN, func(s *ring, slot int) {
		if s != nil {
			out.Merge(s.hists[slot])
		}
	})
	return out
}

// SumCounter sums the named counter series over the lastN live windows
// ending at the head.
func (r *Recorder) SumCounter(name string, lastN int) (sum float64) {
	r.recent(seriesKey{name, false}, lastN, func(s *ring, slot int) {
		if s != nil {
			sum += s.vals[slot]
		}
	})
	return sum
}

// RecentQuantiles returns the named series' q-quantile per window for
// the lastN windows ending at the head, oldest first — the dashboard's
// trend sparkline. Empty windows yield 0.
func (r *Recorder) RecentQuantiles(name string, q float64, lastN int) []float64 {
	out := make([]float64, 0, lastN)
	r.recent(seriesKey{name, true}, lastN, func(s *ring, slot int) {
		v := 0.0
		if s != nil {
			v = s.hists[slot].Quantile(q)
		}
		out = append(out, v)
	})
	return out
}

// WriteRowJSONL encodes one row as a JSONL line — the OnClose sink the
// CLI wires to the -obs export file.
func WriteRowJSONL(w io.Writer, row Row) error {
	return json.NewEncoder(w).Encode(row)
}
