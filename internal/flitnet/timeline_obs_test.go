package flitnet

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

// engineRun is everything through which one engine run reaches a CLI
// artifact: the flit counters and final cycle (netload's table, twin's
// calibration samples), the delivery and backpressure transcript, and the
// hub's Prometheus dump, Chrome trace (from which critpath.Analyze builds
// its report) and timeline JSON.
type engineRun struct {
	stats      Stats
	cycle      uint64
	transcript []string
	prom       string
	trace      string
	timeline   string
	sampler    *timeline.Sampler
}

// runObserved builds the event-driven engine, or the dense reference when
// dense is set, with a full observer attached — flit scope, occupancy
// gauges, link counters, and a timeline sampler on the cycle listener —
// drives it with drive, and captures every export.
func runObserved(t *testing.T, cfg Config, dense bool, drive func(*testing.T, *Net) []string) engineRun {
	t.Helper()
	n := newEngine(t, cfg, dense)
	hub := obs.NewHub()
	n.SetFlitObserver(hub.FlitScope())
	s := timeline.New(hub.Metrics, timeline.Config{Interval: 32})
	n.SetCycleListener(s.Advance)
	r := engineRun{transcript: drive(t, n), stats: n.FlitStats(), cycle: n.Cycle(), sampler: s}
	s.Flush(n.Cycle())
	var prom, trace, tl bytes.Buffer
	if err := hub.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := hub.Trace.WriteChromeTrace(&trace); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := timeline.WriteJSON(&tl, s.Snapshot()); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	r.prom, r.trace, r.timeline = prom.String(), trace.String(), tl.String()
	return r
}

// driveGenerator replays the loop netload, critpath and twin run for every
// sweep point: generated arrivals injected each cycle (a refusal is part of
// the measurement), one Tick per cycle, then a drain to quiet.
func driveGenerator(load float64, cycles int) func(*testing.T, *Net) []string {
	return func(t *testing.T, n *Net) (transcript []string) {
		t.Helper()
		nodes := n.Nodes()
		gen, err := workload.NewGenerator(workload.Uniform{}, nodes, load, 1)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < cycles; c++ {
			for _, a := range gen.Cycle() {
				if err := n.Inject(network.Packet{Src: a.Src, Dst: a.Dst, Data: []network.Word{network.Word(c)}}); err != nil {
					transcript = append(transcript, fmt.Sprintf("cycle %d backpressure %v", c, err))
				}
			}
			n.Tick(1)
		}
		if !n.TickUntilQuiet(200000) {
			t.Fatalf("generator workload did not drain: pending=%d", n.Pending())
		}
		for node := 0; node < nodes; node++ {
			for {
				p, ok := n.TryRecv(node)
				if !ok {
					break
				}
				transcript = append(transcript, fmt.Sprintf("node=%d src=%d dst=%d data=%v", node, p.Src, p.Dst, p.Data))
			}
		}
		return transcript
	}
}

// TestTimelineDenseEventEquivalence is the engine equivalence contract
// every CLI artifact rests on: the dense reference and the event-driven
// engine (whose idle fast-forward back-fills skipped windows analytically)
// must agree on Stats, the final cycle, the delivery and backpressure
// transcript, and byte for byte on the Prometheus dump, Chrome trace and
// timeline, and both timelines must reconcile against their registries.
// The seeded rows mix bursts, idle gaps and drains; the generator rows
// replay the sweep-point loop of netload, critpath and twin.
func TestTimelineDenseEventEquivalence(t *testing.T) {
	type row struct {
		name  string
		cfg   Config
		drive func(*testing.T, *Net) []string
	}
	var grid []row
	for _, g := range []struct {
		name string
		cfg  Config
	}{
		{"det-vc2", Config{Topology: topology.MustMesh(4, 4), Mode: Deterministic, VirtualChannels: 2}},
		{"adaptive-vc3", Config{Topology: topology.MustMesh(4, 4), Mode: Adaptive, VirtualChannels: 3}},
		{"cr-tight", Config{Topology: topology.MustMesh(4, 4), Mode: CR, KillTimeout: 8, RetryBackoff: 64, BufferFlits: 2}},
		{"fattree-cr", Config{Topology: topology.MustFatTree(4, 2), Mode: CR}},
	} {
		for seed := uint64(1); seed <= 2; seed++ {
			grid = append(grid, row{fmt.Sprintf("%s/seed%d", g.name, seed), g.cfg, func(t *testing.T, n *Net) []string {
				return driveDiffWorkload(t, n, seed, 120, 5)
			}})
		}
	}
	for _, k := range []int{2, 4} {
		for _, mode := range []Mode{Deterministic, Adaptive, CR} {
			for vcs := 1; vcs <= 2; vcs++ {
				for _, load := range []float64{0.05, 0.3} {
					cfg := Config{Topology: topology.MustFatTree(k, 2), Mode: mode, VirtualChannels: vcs, BufferFlits: 3, InjectQueue: 8}
					name := fmt.Sprintf("gen-fattree%d-%s-vc%d/load%03d", k, mode, vcs, int(load*1000))
					grid = append(grid, row{name, cfg, driveGenerator(load, 300)})
				}
			}
		}
	}
	for _, g := range grid {
		t.Run(g.name, func(t *testing.T) {
			dense := runObserved(t, g.cfg, true, g.drive)
			event := runObserved(t, g.cfg, false, g.drive)
			if dense.stats != event.stats {
				t.Errorf("stats diverge:\n dense %+v\n event %+v", dense.stats, event.stats)
			}
			if dense.cycle != event.cycle {
				t.Errorf("cycle diverges: dense=%d event=%d", dense.cycle, event.cycle)
			}
			if d, e := strings.Join(dense.transcript, "\n"), strings.Join(event.transcript, "\n"); d != e {
				t.Errorf("transcripts diverge: dense %d lines, event %d lines", len(dense.transcript), len(event.transcript))
			}
			for _, a := range []struct{ name, dense, event string }{
				{"prometheus dump", dense.prom, event.prom},
				{"chrome trace", dense.trace, event.trace},
				{"timeline", dense.timeline, event.timeline},
			} {
				if a.dense != a.event {
					t.Errorf("%s diverges between engines: dense %d bytes, event %d bytes", a.name, len(a.dense), len(a.event))
				}
			}
			if err := dense.sampler.Reconcile(); err != nil {
				t.Errorf("dense timeline does not reconcile: %v", err)
			}
			if err := event.sampler.Reconcile(); err != nil {
				t.Errorf("event timeline does not reconcile: %v", err)
			}
		})
	}
}

// TestBufferedGaugeMatchesScan holds the maintained buffered-flit counts
// (which feed the flitnet_buffered_flits gauges) to the ground truth a
// full lane scan computes, at every step of a busy CR workload — kills and
// sweeps included.
func TestBufferedGaugeMatchesScan(t *testing.T) {
	cfg := Config{Topology: topology.MustMesh(4, 4), Mode: CR, KillTimeout: 8, RetryBackoff: 32, BufferFlits: 2, PacketWords: 8}
	n := MustNew(cfg)
	hub := obs.NewHub()
	n.SetFlitObserver(hub.FlitScope())
	rng := diffRNG(11)
	long := make([]network.Word, 8)
	scanBuffered := func() int {
		total := 0
		for id := range n.fifos {
			total += n.fifos[id].len()
		}
		return total
	}
	for step := 0; step < 6000; step++ {
		src := rng.intn(16)
		dst := rng.intn(16)
		if src != dst {
			_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: long})
		}
		n.tickOnce()
		if want := scanBuffered(); n.buffered != want {
			t.Fatalf("step %d: buffered=%d, scan says %d", step, n.buffered, want)
		}
	}
	if n.FlitStats().Kills == 0 {
		t.Fatal("workload never exercised the kill sweep; gauge accounting untested there")
	}
}

// TestVCGaugeMatchesScan does the per-virtual-channel accounting check on
// an adaptive multi-VC workload.
func TestVCGaugeMatchesScan(t *testing.T) {
	cfg := Config{Topology: topology.MustMesh(4, 4), Mode: Adaptive, VirtualChannels: 3}
	n := MustNew(cfg)
	hub := obs.NewHub()
	n.SetFlitObserver(hub.FlitScope())
	rng := diffRNG(23)
	scanVC := func(vc int) int {
		total := 0
		for id := vc; id < len(n.fifos); id += 3 {
			total += n.fifos[id].len()
		}
		return total
	}
	for step := 0; step < 2000; step++ {
		if rng.intn(3) == 0 {
			src := rng.intn(16)
			dst := rng.intn(16)
			if src != dst {
				_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: []network.Word{network.Word(step)}})
			}
		}
		n.tickOnce()
		for vc := 0; vc < 3; vc++ {
			if want := scanVC(vc); n.bufferedVC[vc] != want {
				t.Fatalf("step %d vc %d: bufferedVC=%d, scan says %d", step, vc, n.bufferedVC[vc], want)
			}
		}
	}
}

// TestLinkCountersSumToFlitMoves checks that the per-link utilization
// counters partition Stats.FlitMoves exactly: every flit move crosses
// exactly one router output link.
func TestLinkCountersSumToFlitMoves(t *testing.T) {
	cfg := Config{Topology: topology.MustFatTree(4, 2), Mode: Adaptive, VirtualChannels: 2}
	n := MustNew(cfg)
	hub := obs.NewHub()
	n.SetFlitObserver(hub.FlitScope())
	rng := diffRNG(5)
	for i := 0; i < 200; i++ {
		src := rng.intn(n.Nodes())
		dst := rng.intn(n.Nodes())
		if src == dst {
			continue
		}
		_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: []network.Word{network.Word(i)}})
		n.Tick(1 + rng.intn(3))
	}
	if !n.TickUntilQuiet(1_000_000) {
		t.Fatal("did not drain")
	}
	var sum uint64
	for _, k := range hub.Metrics.CounterKeys() {
		if k.Name == "flitnet_link_flits_total" {
			sum += hub.Metrics.CounterValue(k)
		}
	}
	if sum == 0 || sum != n.FlitStats().FlitMoves {
		t.Fatalf("link counters sum to %d, FlitMoves=%d", sum, n.FlitStats().FlitMoves)
	}
}
