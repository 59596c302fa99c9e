package fastrpc

import (
	"testing"
	"time"

	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
)

func newChannel() (*sim.Engine, *Channel) {
	eng := sim.NewEngine()
	dsp := sim.NewResource(eng, 1)
	return eng, NewChannel(eng, soc.Pixel3().RPC, dsp)
}

func TestColdStartPaysSetup(t *testing.T) {
	eng, c := newChannel()
	var b Breakdown
	c.Invoke(1<<20, 5*time.Millisecond, func(bd Breakdown) { b = bd })
	eng.Run()
	if b.Setup == 0 {
		t.Fatal("first call must pay session setup")
	}
	if b.Setup != c.SetupCost() {
		t.Fatalf("setup share = %v, want %v", b.Setup, c.SetupCost())
	}
	if !c.Ready() {
		t.Fatal("channel must be warm after first call")
	}
}

func TestWarmCallsSkipSetup(t *testing.T) {
	eng, c := newChannel()
	var first, second Breakdown
	c.Invoke(1<<20, 5*time.Millisecond, func(bd Breakdown) {
		first = bd
		c.Invoke(1<<20, 5*time.Millisecond, func(bd2 Breakdown) { second = bd2 })
	})
	eng.Run()
	if second.Setup != 0 {
		t.Fatalf("warm call paid setup %v", second.Setup)
	}
	if second.Total() >= first.Total() {
		t.Fatal("warm call must be cheaper than cold call")
	}
	if c.Calls() != 2 {
		t.Fatalf("calls = %d, want 2", c.Calls())
	}
}

func TestOffloadAmortization(t *testing.T) {
	// Fig. 8: the offload share of total time shrinks as the number of
	// consecutive inferences grows.
	share := func(n int) float64 {
		eng, c := newChannel()
		var overhead, exec time.Duration
		var run func(i int)
		run = func(i int) {
			if i >= n {
				return
			}
			c.Invoke(150*1024, 8*time.Millisecond, func(b Breakdown) {
				overhead += b.Setup + b.Transport
				exec += b.Exec
				run(i + 1)
			})
		}
		run(0)
		eng.Run()
		return float64(overhead) / float64(overhead+exec)
	}
	s1, s10, s100 := share(1), share(10), share(100)
	if !(s1 > s10 && s10 > s100) {
		t.Fatalf("offload share must shrink: %v %v %v", s1, s10, s100)
	}
	if s1 < 0.5 {
		t.Fatalf("single-call offload share = %v, want setup-dominated (>0.5)", s1)
	}
	if s100 > 0.15 {
		t.Fatalf("100-call offload share = %v, want amortized (<0.15)", s100)
	}
}

func TestConcurrentColdCallsSetupOnce(t *testing.T) {
	eng, c := newChannel()
	setups := 0
	for i := 0; i < 3; i++ {
		c.Invoke(1024, time.Millisecond, func(b Breakdown) {
			if b.Setup > 0 {
				setups++
			}
		})
	}
	eng.Run()
	// All three waited on the same setup; each reports its own wait but
	// the channel performed one establishment.
	if c.Calls() != 3 {
		t.Fatalf("calls = %d", c.Calls())
	}
	if setups != 3 {
		t.Fatalf("setup-affected calls = %d, want 3 (all waited)", setups)
	}
}

func TestQueueingUnderContention(t *testing.T) {
	// Two channels sharing one DSP: the second's calls see queue time.
	eng := sim.NewEngine()
	dsp := sim.NewResource(eng, 1)
	p := soc.Pixel3().RPC
	a := NewChannel(eng, p, dsp)
	b := NewChannel(eng, p, dsp)
	var queued time.Duration
	a.Invoke(1024, 50*time.Millisecond, nil)
	b.Invoke(1024, 50*time.Millisecond, func(bd Breakdown) { queued = bd.Queue })
	eng.Run()
	if queued == 0 {
		t.Fatal("contended call must report queue time")
	}
}

func TestPayloadScalesTransport(t *testing.T) {
	eng, c := newChannel()
	var small, large Breakdown
	c.Invoke(1024, time.Millisecond, func(b Breakdown) {
		small = b
		c.Invoke(32<<20, time.Millisecond, func(b2 Breakdown) { large = b2 })
	})
	eng.Run()
	if large.Transport <= small.Transport {
		t.Fatal("bigger payloads must pay more cache maintenance")
	}
}

func TestCallStages(t *testing.T) {
	_, c := newChannel()
	stages := c.CallStages(1 << 20)
	if len(stages) != 6 {
		t.Fatalf("stages = %d, want 6", len(stages))
	}
	var total time.Duration
	for _, s := range stages {
		if s.Name == "" {
			t.Fatal("stage missing name")
		}
		total += s.Duration
	}
	if total <= 0 {
		t.Fatal("stage durations must be positive")
	}
}

func TestBreakdownTotal(t *testing.T) {
	b := Breakdown{Setup: 1, Transport: 2, Queue: 3, Exec: 4}
	if b.Total() != 10 {
		t.Fatalf("total = %v", b.Total())
	}
}

func TestInvokeSpanRecordsFlowLinkedSpans(t *testing.T) {
	eng := sim.NewEngine()
	dsp := sim.NewResource(eng, 1)
	ch := NewChannel(eng, soc.Pixel3().RPC, dsp)
	ch.Tracer = telemetry.NewTracer(eng.Now)
	ch.Metrics = telemetry.NewRegistry()

	var bd Breakdown
	ch.InvokeSpan(64*1024, 5*time.Millisecond, nil, "infer", func(b Breakdown) { bd = b })
	eng.Run()

	spans := ch.Tracer.Spans()
	byName := map[string]telemetry.Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	setup, ok := byName["rpc-setup"]
	if !ok || setup.Duration() != bd.Setup {
		t.Fatalf("rpc-setup span = %+v, want duration %v", setup, bd.Setup)
	}
	down, ok := byName["rpc-down"]
	if !ok || down.Track != telemetry.TrackCPU {
		t.Fatalf("rpc-down span = %+v", down)
	}
	exec, ok := byName["infer"]
	if !ok || exec.Track != telemetry.TrackDSP || exec.Duration() != bd.Exec {
		t.Fatalf("infer span = %+v, want exec %v", exec, bd.Exec)
	}
	up, ok := byName["rpc-up"]
	if !ok || up.Track != telemetry.TrackCPU {
		t.Fatalf("rpc-up span = %+v", up)
	}
	if got := down.Duration() + up.Duration(); got != bd.Transport {
		t.Fatalf("down+up = %v, breakdown transport = %v", got, bd.Transport)
	}
	flows := ch.Tracer.Flows()
	if len(flows) != 2 {
		t.Fatalf("flows = %d, want 2 (down→exec, exec→up)", len(flows))
	}
	if flows[0].From != down.ID || flows[0].To != exec.ID {
		t.Fatalf("first flow = %+v", flows[0])
	}
	if flows[1].From != exec.ID || flows[1].To != up.ID {
		t.Fatalf("second flow = %+v", flows[1])
	}
	if ch.Metrics.Counter("aitax_fastrpc_calls_total") != 1 {
		t.Fatal("call counter not incremented")
	}
	if ch.Metrics.Count("aitax_fastrpc_exec_ms") != 1 {
		t.Fatal("exec histogram not observed")
	}
}

func TestInvokeWithoutTelemetryUnchanged(t *testing.T) {
	run := func(traced bool) (sim.Time, Breakdown) {
		eng := sim.NewEngine()
		dsp := sim.NewResource(eng, 1)
		ch := NewChannel(eng, soc.Pixel3().RPC, dsp)
		if traced {
			ch.Tracer = telemetry.NewTracer(eng.Now)
			ch.Metrics = telemetry.NewRegistry()
		}
		var bd Breakdown
		ch.Invoke(128*1024, 3*time.Millisecond, func(b Breakdown) { bd = b })
		eng.Run()
		return eng.Now(), bd
	}
	plainEnd, plainBD := run(false)
	tracedEnd, tracedBD := run(true)
	if plainEnd != tracedEnd || plainBD != tracedBD {
		t.Fatalf("tracing perturbed the run: %v/%v vs %v/%v", plainEnd, plainBD, tracedEnd, tracedBD)
	}
}
