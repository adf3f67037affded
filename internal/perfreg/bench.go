package perfreg

import (
	"testing"

	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/sim"
	"msglayer/internal/topology"
	"msglayer/internal/twin"
)

// BenchResult is one allocation benchmark recorded via testing.Benchmark.
// AllocsPerOp is the gated number: the simulator's hot paths promise a
// steady state that allocates nothing, and any PR that breaks the promise
// fails the compare. NsPerOp and BytesPerOp are informational — wall time
// is machine noise, and byte counts shift with Go runtime versions.
type BenchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Bench names. The compare gate treats the idle pair specially: the idle
// fast-forward speedup is gated within one snapshot — the event-driven
// bench against its dense baseline recorded in the same run on the same
// machine, so the wall-clock ratio is meaningful.
const (
	BenchTickIdle      = "flitnet-tick-idle"
	BenchTickIdleDense = "flitnet-tick-idle-dense"
	BenchTickSparse    = "flitnet-tick-sparse"
	BenchTickLarge     = "flitnet-tick-large"
	BenchTwinEval      = "twin-eval"
	BenchMonitorEval   = "monitor-eval"
)

// recordBenches runs the allocation benchmarks the PR gate tracks: the
// flit simulator's steady-state tick, the event kernel's
// schedule/cancel/fire churn, and the event-driven engine's idle and
// sparse workloads (with the dense reference recorded alongside as the
// idle baseline). testing.Benchmark scales the op counts the same way
// `go test -bench` does, so a recording costs about a wall-clock second
// per bench.
func recordBenches() []BenchResult {
	return []BenchResult{
		benchResult("flitnet-tick-steady", benchFlitnetTick),
		benchResult("sim-kernel-churn", benchKernelChurn),
		benchResult(BenchTickIdle, func(b *testing.B) { benchFlitnetIdle(b, flitnet.New) }),
		benchResult(BenchTickIdleDense, func(b *testing.B) { benchFlitnetIdle(b, flitnet.NewDenseReference) }),
		benchResult(BenchTickSparse, benchFlitnetSparse),
		benchResult(BenchTickLarge, benchFlitnetLarge),
		benchResult("timeline-sample", benchTimelineSample),
		benchResult(BenchTwinEval, benchTwinEval),
		benchResult(BenchMonitorEval, benchMonitorEval),
	}
}

// twinSink keeps the compiler from eliding the closed-form evaluation.
var twinSink float64

// benchTwinEval times one analytic-twin network prediction at an
// off-knot load, where the PCHIP segments actually interpolate. The twin
// promises O(1) zero-allocation evaluation; the allocs gate holds it to
// that.
func benchTwinEval(b *testing.B) {
	regime := twin.CalibratedRegimes()[0]
	point := twin.NetPoint{Regime: regime, Load: 0.123, Cycles: twin.CalCycles}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred, err := point.PredictNet()
		if err != nil {
			b.Fatal(err)
		}
		twinSink += pred.MeanLatency
	}
}

func benchResult(name string, fn func(b *testing.B)) BenchResult {
	r := testing.Benchmark(fn)
	return BenchResult{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchFlitnetTick is the exported-API twin of the flitnet package's
// BenchmarkTickOnce: one simulator cycle plus receive drain with worms in
// flight on the canonical 16-node fat tree. Re-seeding when the network
// drains happens outside the timer, so allocs/op covers the tick and
// receive paths alone.
func benchFlitnetTick(b *testing.B) {
	net, err := flitnet.New(flitnet.Config{Topology: topology.MustFatTree(4, 2), Mode: flitnet.Adaptive})
	if err != nil {
		b.Fatal(err)
	}
	payload := []network.Word{1, 2, 3, 4}
	inflight := 0
	drain := func() {
		for node := 0; node < 16; node++ {
			for {
				if _, ok := net.TryRecv(node); !ok {
					break
				}
				inflight--
			}
		}
	}
	reseed := func() {
		for src := 0; src < 16; src++ {
			if net.Inject(network.Packet{Src: src, Dst: 15 - src, Data: payload}) == nil {
				inflight++
			}
		}
	}
	reseed()
	// Warm the pools and flow tables before measuring.
	for i := 0; i < 2000; i++ {
		net.Tick(1)
		drain()
		if inflight == 0 {
			reseed()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Tick(1)
		drain()
		if inflight == 0 {
			b.StopTimer()
			reseed()
			b.StartTimer()
		}
	}
}

// benchFlitnetIdle is the exported-API twin of the flitnet package's
// BenchmarkTickIdle/BenchmarkTickIdleDense: advancing a 256-router mesh
// whose only pending worm sleeps in a retry backoff a million cycles out,
// 1024 cycles per op. The event engine fast-forwards the idle stretch in
// O(1); the dense reference pays the full per-cycle topology scan — the
// ratio is the speedup the compare gate holds at ≥ 10×. build is
// flitnet.New or flitnet.NewDenseReference.
func benchFlitnetIdle(b *testing.B, build func(flitnet.Config) (*flitnet.Net, error)) {
	net, err := build(flitnet.Config{
		Topology:     topology.MustMesh(16, 16),
		Mode:         flitnet.CR,
		RetryBackoff: 1 << 20,
		KillTimeout:  4,
		PacketWords:  16,
	})
	if err != nil {
		b.Fatal(err)
	}
	long := make([]network.Word, 16)
	if err := net.Inject(network.Packet{Src: 0, Dst: 15, Data: long}); err != nil {
		b.Fatal(err)
	}
	if err := net.Inject(network.Packet{Src: 1, Dst: 15, Data: long}); err != nil {
		b.Fatal(err)
	}
	net.Tick(256)
	if net.Pending() == 0 || net.FlitStats().Kills == 0 {
		b.Fatal("idle workload did not park a worm in backoff")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Tick(1024)
	}
}

// benchFlitnetSparse is the exported-API twin of the flitnet package's
// BenchmarkTickSparse: one cycle of a 256-router mesh at roughly 1% lane
// occupancy — a handful of long worms crossing an otherwise empty mesh.
func benchFlitnetSparse(b *testing.B) {
	net, err := flitnet.New(flitnet.Config{
		Topology:    topology.MustMesh(16, 16),
		Mode:        flitnet.Deterministic,
		PacketWords: 32,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]network.Word, 30)
	injected := uint64(0)
	reseed := func() {
		for node := 0; node < 256; node++ {
			for {
				if _, ok := net.TryRecv(node); !ok {
					break
				}
			}
		}
		for _, src := range []int{0, 17, 34, 51} {
			if err := net.Inject(network.Packet{Src: src, Dst: 255 - src, Data: payload}); err != nil {
				b.Fatal(err)
			}
			injected++
		}
	}
	// All worms delivered means the network is drained (deterministic mode
	// never drops; LatencyCount ticks at delivery, unlike Delivered which
	// counts receives). Reseeding outside the timer keeps the measured op
	// the sparse tick itself.
	drained := func() bool { return net.FlitStats().LatencyCount == injected }
	reseed()
	for i := 0; i < 2000; i++ {
		if drained() {
			reseed()
		}
		net.Tick(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if drained() {
			b.StopTimer()
			reseed()
			b.StartTimer()
		}
		net.Tick(1)
	}
}

// benchFlitnetLarge is the exported-API twin of the flitnet package's
// BenchmarkTickLarge: one cycle of a 1024-router mesh under heavy
// bisection traffic. It holds the largest topology's steady-state tick to
// zero allocations.
func benchFlitnetLarge(b *testing.B) {
	net, err := flitnet.New(flitnet.Config{
		Topology:    topology.MustMesh(32, 32),
		Mode:        flitnet.Deterministic,
		PacketWords: 8,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]network.Word, 6)
	injected := uint64(0)
	reseed := func() {
		for node := 0; node < 1024; node++ {
			for {
				if _, ok := net.TryRecv(node); !ok {
					break
				}
			}
		}
		for src := 0; src < 1024; src++ {
			if err := net.Inject(network.Packet{Src: src, Dst: 1023 - src, Data: payload}); err != nil {
				b.Fatal(err)
			}
			if err := net.Inject(network.Packet{Src: src, Dst: (src + 512) % 1024, Data: payload}); err != nil {
				b.Fatal(err)
			}
			injected += 2
		}
	}
	drained := func() bool { return net.FlitStats().LatencyCount == injected }
	reseed()
	for i := 0; i < 2000; i++ {
		if drained() {
			reseed()
		}
		net.Tick(1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if drained() {
			b.StopTimer()
			reseed()
			b.StartTimer()
		}
		net.Tick(1)
	}
}

// benchTimelineSample is the exported-API twin of the timeline package's
// BenchmarkSamplerAdvance: every op mutates a working set of counters, a
// gauge, and a histogram, then advances a 1-cycle-window sampler — the
// worst case, closing a window per op. Steady-state sampling promises zero
// allocations; the timeline rotates via Reset (also allocation-free, it
// keeps capacity) once the retained windows reach a server-like working
// size, so a long measured pass cannot grow the arenas.
func benchTimelineSample(b *testing.B) {
	reg := obs.NewRegistry()
	counters := make([]*obs.Counter, 8)
	for i := range counters {
		counters[i] = reg.Counter(obs.Key{Name: "protocol_events_total", Node: i, Proto: "finite", Event: "finite.start"})
	}
	lvl := reg.Level(obs.Key{Name: "flitnet_inflight_worms", Node: -1, Proto: "flitnet"})
	h := reg.Histogram(obs.Key{Name: "lat", Node: 0, Proto: "finite"}, nil)
	s := timeline.New(reg, timeline.Config{Interval: 1})
	const rotateAt = 1 << 15
	cycle := uint64(0)
	loop := func(n int) {
		for i := 0; i < n; i++ {
			cycle++
			counters[i%len(counters)].Inc()
			lvl.Set(int64(i & 7))
			h.Observe(uint64(i % 300))
			s.Advance(cycle)
			if s.Windows() >= rotateAt {
				s.Reset(cycle)
			}
		}
	}
	loop(rotateAt) // grow every arena to its steady working size
	s.Reset(cycle)
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N)
}

// benchMonitorEval is the exported-API twin of the monitor package's
// TestMonitorEvalAllocs: every op mutates the counters and histogram the
// canonical rules watch, then advances a 1-cycle-window sampler with the
// SLO monitor riding the window stream — closing a window and evaluating
// every rule per op. Steady-state evaluation promises zero allocations;
// the workload is tuned so no rule fires (incident opening is the allowed
// cold path).
func benchMonitorEval(b *testing.B) {
	reg := obs.NewRegistry()
	delivered := reg.Counter(obs.Key{Name: "net_delivered_total", Node: -1, Proto: "bench"})
	injected := reg.Counter(obs.Key{Name: "net_injected_total", Node: -1, Proto: "bench"})
	h := reg.Histogram(obs.Key{Name: "transfer_latency_rounds", Node: -1, Proto: "bench"}, nil)
	s := timeline.New(reg, timeline.Config{Interval: 1})
	mon, err := monitor.New(monitor.CanonicalRules())
	if err != nil {
		b.Fatal(err)
	}
	mon.Attach(s)
	const rotateAt = 1 << 15
	cycle := uint64(0)
	loop := func(n int) {
		for i := 0; i < n; i++ {
			cycle++
			delivered.Add(3)
			injected.Add(3)
			h.Observe(cycle % 64)
			s.Advance(cycle)
			if s.Windows() >= rotateAt {
				s.Reset(cycle)
			}
		}
	}
	loop(rotateAt) // grow arenas, compile series dispatch, warm burn rings
	s.Reset(cycle)
	b.ReportAllocs()
	b.ResetTimer()
	loop(b.N)
	b.StopTimer()
	if mon.IncidentCount() != 0 {
		b.Fatalf("bench workload fired %d incidents; the measured path must stay steady-state", mon.IncidentCount())
	}
}

// noopEvent is package-level so scheduling it allocates no closure.
var noopEvent = func(sim.Time) {}

// benchKernelChurn is the exported-API twin of the sim package's
// BenchmarkKernelChurn: schedule a window of events, cancel half, fire the
// rest — the protocol-timer churn the value-based heap keeps free of
// allocation.
func benchKernelChurn(b *testing.B) {
	k := sim.NewKernel()
	const window = 64
	handles := make([]sim.Handle, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handles = append(handles, k.After(sim.Time(i%16)+1, noopEvent))
		if len(handles) == window {
			for j, h := range handles {
				if j%2 == 0 {
					k.Cancel(h)
				}
			}
			handles = handles[:0]
			for k.Step() {
			}
		}
	}
}
