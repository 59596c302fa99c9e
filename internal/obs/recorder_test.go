package obs

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestRecorderClosesWindowsInOrder(t *testing.T) {
	var closed []Row
	r := NewRecorder(RecorderConfig{
		Window:  ms(100),
		Keep:    4,
		OnClose: func(row Row) { closed = append(closed, row) },
	})
	for i := 0; i < 10; i++ {
		r.Add(ms(i*100), "offered", 1)
		r.Observe(ms(i*100), "lat", float64(i))
	}
	r.Flush()
	if len(closed) != 10 {
		t.Fatalf("closed %d windows, want 10", len(closed))
	}
	for i, row := range closed {
		if row.Index != i {
			t.Fatalf("row %d has index %d; want in-order close", i, row.Index)
		}
		if row.Counters["offered"] != 1 {
			t.Fatalf("window %d offered = %v", i, row.Counters["offered"])
		}
		if h := row.Hists["lat"]; h.Count != 1 || h.Min != float64(i) {
			t.Fatalf("window %d hist = %+v", i, h)
		}
		if row.StartMS != float64(i*100) || row.EndMS != float64((i+1)*100) {
			t.Fatalf("window %d bounds [%g,%g]", i, row.StartMS, row.EndMS)
		}
	}
}

func TestRecorderSkipsIdleGapsAndDropsLate(t *testing.T) {
	var closed []int
	r := NewRecorder(RecorderConfig{
		Window:  ms(100),
		Keep:    2,
		OnClose: func(row Row) { closed = append(closed, row.Index) },
	})
	r.Add(ms(50), "c", 1)    // window 0
	r.Add(ms(950), "c", 1)   // window 9: 0 closes, 1..8 never existed
	r.Add(ms(10), "late", 1) // window 0 is long gone
	if got := r.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	r.Flush()
	if len(closed) != 2 || closed[0] != 0 || closed[1] != 9 {
		t.Fatalf("closed %v, want [0 9] (idle gap skipped)", closed)
	}
}

func TestRecorderRollingReads(t *testing.T) {
	r := NewRecorder(RecorderConfig{Window: ms(100), Keep: 16})
	for i := 0; i < 8; i++ {
		r.Add(ms(i*100), "served", 2)
		r.Observe(ms(i*100), "lat", float64((i+1)*10))
	}
	if got := r.SumCounter("served", 4); got != 8 {
		t.Fatalf("SumCounter last 4 = %g, want 8", got)
	}
	if got := r.SumCounter("served", 100); got != 16 {
		t.Fatalf("SumCounter all = %g, want 16", got)
	}
	merged := r.MergedHist("lat", 4)
	if merged.Count() != 4 || merged.Min() != 50 || merged.Max() != 80 {
		t.Fatalf("MergedHist last 4: count %d min %g max %g", merged.Count(), merged.Min(), merged.Max())
	}
	qs := r.RecentQuantiles("lat", 0.5, 4)
	if len(qs) != 4 {
		t.Fatalf("RecentQuantiles len %d", len(qs))
	}
	for i, q := range qs {
		want := float64((4 + i + 1) * 10) // windows 4..7, one value each
		if q != want {
			t.Fatalf("RecentQuantiles[%d] = %g, want %g", i, q, want)
		}
	}
	if h := r.MergedHist("absent", 4); h.Count() != 0 {
		t.Fatal("absent series should merge empty")
	}
}

func TestRecorderJSONLDeterministic(t *testing.T) {
	render := func() string {
		var sb strings.Builder
		r := NewRecorder(RecorderConfig{
			Window:  ms(100),
			Keep:    4,
			OnClose: func(row Row) { _ = WriteRowJSONL(&sb, row) },
		})
		r.Add(ms(10), "b_count", 2)
		r.Add(ms(10), "a_count", 1)
		r.Observe(ms(20), "lat", 5)
		r.Flush()
		return sb.String()
	}
	first := render()
	if first != render() {
		t.Fatal("JSONL export not deterministic")
	}
	want := `{"window":0,"start_ms":0,"end_ms":100,"counters":{"a_count":1,"b_count":2},"hists":{"lat":{"count":1,"sum":5,"min":5,"max":5,"p50":5,"p90":5,"p99":5}}}` + "\n"
	if first != want {
		t.Fatalf("JSONL row:\n got %q\nwant %q", first, want)
	}
}

// TestRecorderMemoryFlat is the bounded-bytes contract: a million
// observations across a long virtual run must not grow the recorder —
// the ring recycles windows, histograms are fixed-bucket.
func TestRecorderMemoryFlat(t *testing.T) {
	r := NewRecorder(RecorderConfig{Window: ms(100), Keep: 32})
	mobilenet := SeriesFor("MobileNet 1.0 v1")
	series := mobilenet.Latency
	// Touch every ring slot first so steady state is reached.
	for i := 0; i < 64; i++ {
		r.Observe(ms(i*100), series, 1)
		r.Add(ms(i*100), mobilenet.Served, 1)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 1_000_000; i++ {
		at := ms(6400 + i/100*100)
		r.Observe(at, series, float64(i%1000))
		r.Add(at, mobilenet.Served, 1)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if growth > 1<<20 {
		t.Fatalf("heap grew %d bytes over 1M windowed observations; want flat (<1MB)", growth)
	}
}

func TestRecorderConcurrentHammer(t *testing.T) {
	// Every Add and Observe lands in a closed row or the dropped count,
	// exactly once — under -race this also proves the locking.
	var closedSum float64
	r := NewRecorder(RecorderConfig{
		Window: ms(100),
		Keep:   8,
		OnClose: func(row Row) {
			closedSum += row.Counters["served"] + float64(row.Hists["lat"].Count)
		},
	})
	const workers = 8
	const perWorker = 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				at := ms(i / 50 * 100)
				r.Add(at, "served", 1)
				r.Observe(at, "lat", float64(i%100))
			}
		}()
	}
	wg.Wait()
	r.Flush()
	total := closedSum + float64(r.Dropped())
	if total != 2*workers*perWorker { // one Add + one Observe per iteration
		t.Fatalf("closed+dropped = %g, want %d", total, 2*workers*perWorker)
	}
}

func BenchmarkRecorderSteadyState(b *testing.B) {
	r := NewRecorder(RecorderConfig{Window: ms(100), Keep: 32})
	all := SeriesFor(AllModels)
	series, served := all.Latency, all.Served
	for i := 0; i < 64; i++ { // reach steady state before measuring
		r.Observe(ms(i*100), series, 1)
		r.Add(ms(i*100), served, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := ms(6400 + i/100*100)
		r.Observe(at, series, float64(i%500))
		r.Add(at, served, 1)
	}
}

// Recording through handles into existing series allocates nothing,
// window advances included, once every ring cell holds its histogram.
func TestHandleRecordDoesNotAllocate(t *testing.T) {
	r := NewRecorder(RecorderConfig{Window: ms(100), Keep: 8})
	served, lat := r.Counter("served"), r.Hist("lat")
	i := 0
	record := func() {
		at := ms(i * 50)
		served.Add(at, 1)
		lat.Observe(at, float64(i%100))
		i++
	}
	for i < 2*8 { // fill every ring cell
		record()
	}
	if n := testing.AllocsPerRun(200, record); n != 0 {
		t.Fatalf("handle record path allocates %v times per call, want 0", n)
	}
}
