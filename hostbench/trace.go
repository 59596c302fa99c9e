package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one benchmark-side call into a layer's public function: the
// benchmark records it around the call, never inside the program.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// StartNS and EndNS are host nanoseconds since the tracer started.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
}

// Tracer keeps spans in memory; the parent process writes them out when
// the benchmark ends. A nil *Tracer records nothing, which is how the
// untraced repetitions run.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty tracer.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Start opens a span and returns its id (-1 on a nil tracer).
func (t *Tracer) Start(parent int, layer, name string) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Layer: layer, Name: name, StartNS: now})
	return len(t.spans) - 1
}

// End closes the span id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// Add records an already finished span that ended now and lasted d —
// for work whose duration a layer reports after the fact (lab jobs).
func (t *Tracer) Add(parent int, layer, name string, d time.Duration) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: len(t.spans), Parent: parent, Layer: layer, Name: name,
		StartNS: now - int64(d), EndNS: now})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans (nil on a nil tracer).
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTimes sums each layer's self time: a span's duration minus the
// part of its interval that its child spans cover. Children may overlap
// each other (parallel lab jobs), so the covered part is the union of
// their intervals clipped to the parent.
func SelfTimes(spans []Span) map[string]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Layer] += time.Duration(s.EndNS - s.StartNS - covered(s, children[s.ID]))
	}
	return self
}

// covered returns how many nanoseconds of parent's interval the union of
// kids' intervals spans.
func covered(parent Span, kids []Span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	for i := 0; i < len(iv); {
		lo, hi := iv[i][0], iv[i][1]
		for i++; i < len(iv) && iv[i][0] <= hi; i++ {
			hi = max(hi, iv[i][1])
		}
		total += hi - lo
	}
	return total
}
