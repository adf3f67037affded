package flitnet

import (
	"fmt"
	"math/bits"
	"testing"

	"msglayer/internal/network"
	"msglayer/internal/topology"
)

// The event-driven engine's contract with the dense reference stepper is
// byte-identical results: same Stats, same cycle count, same packets
// delivered to each node in the same order. These tests drive both engines
// through identical seeded workloads — random sources, destinations,
// payload sizes, and idle gaps, across all three routing modes and both
// virtual-channel settings — and compare everything observable.

// diffRNG is a splitmix-style deterministic generator so the workload grid
// is reproducible across runs and platforms.
type diffRNG uint64

func (r *diffRNG) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *diffRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// newEngine builds the event-driven engine, or the dense reference when
// dense is set.
func newEngine(tb testing.TB, cfg Config, dense bool) *Net {
	tb.Helper()
	build := New
	if dense {
		build = NewDenseReference
	}
	n, err := build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// runDiffWorkload drives one net through the seeded workload and returns a
// transcript: every delivered packet in per-node drain order, plus the
// final counters.
func runDiffWorkload(t *testing.T, cfg Config, dense bool, seed uint64, injections, burst int) (transcript []string, stats Stats, cycle uint64) {
	t.Helper()
	n := newEngine(t, cfg, dense)
	transcript = driveDiffWorkload(t, n, seed, injections, burst)
	return transcript, n.FlitStats(), n.Cycle()
}

// driveDiffWorkload runs the seeded workload on n until it drains and
// returns the transcript of deliveries and refused injections.
func driveDiffWorkload(t *testing.T, n *Net, seed uint64, injections, burst int) (transcript []string) {
	t.Helper()
	nodes := n.Nodes()
	rng := diffRNG(seed)
	drain := func(tag string) {
		for node := 0; node < nodes; node++ {
			for {
				p, ok := n.TryRecv(node)
				if !ok {
					break
				}
				transcript = append(transcript, fmt.Sprintf("%s node=%d src=%d dst=%d data=%v", tag, node, p.Src, p.Dst, p.Data))
			}
		}
	}
	injected := 0
	for injected < injections {
		// A burst of injections, then a randomized stretch of ticking —
		// sometimes cycle by cycle, sometimes a drain-to-quiet that
		// exercises the idle fast-forward against dense idling.
		for b := 0; b < burst && injected < injections; b++ {
			src := rng.intn(nodes)
			dst := rng.intn(nodes)
			if src == dst {
				dst = (dst + 1) % nodes
			}
			words := rng.intn(n.PacketWords() + 1)
			data := make([]network.Word, words)
			for i := range data {
				data[i] = network.Word(rng.next())
			}
			if err := n.Inject(network.Packet{Src: src, Dst: dst, Data: data}); err != nil {
				// Inject queue full: tick a little and move on; both
				// engines see the identical rng stream either way.
				transcript = append(transcript, "backpressure "+err.Error())
			}
			injected++
		}
		switch rng.intn(3) {
		case 0:
			n.Tick(1 + rng.intn(7))
		case 1:
			n.Tick(64)
		default:
			n.TickUntilQuiet(4096)
		}
		drain("mid")
	}
	if !n.TickUntilQuiet(1_000_000) {
		t.Fatalf("workload did not drain: pending=%d", n.Pending())
	}
	drain("end")
	return transcript
}

// TestDenseEventEquivalence is the differential property test: the same
// seeded workload grid through the dense reference and the event engine
// must produce byte-identical Stats, delivery order, and cycle counts for
// every mode × virtual-channel × seed combination.
func TestDenseEventEquivalence(t *testing.T) {
	topo := func() topology.Topology { return topology.MustMesh(4, 4) }
	grid := []struct {
		name string
		cfg  Config
	}{
		{"det-vc1", Config{Topology: topo(), Mode: Deterministic}},
		{"det-vc2", Config{Topology: topo(), Mode: Deterministic, VirtualChannels: 2}},
		{"adaptive-vc1", Config{Topology: topo(), Mode: Adaptive}},
		{"adaptive-vc3", Config{Topology: topo(), Mode: Adaptive, VirtualChannels: 3}},
		{"cr", Config{Topology: topo(), Mode: CR}},
		{"cr-tight", Config{Topology: topo(), Mode: CR, KillTimeout: 8, RetryBackoff: 64, BufferFlits: 2}},
		{"fattree-adaptive", Config{Topology: topology.MustFatTree(4, 2), Mode: Adaptive, VirtualChannels: 2}},
		{"fattree-cr", Config{Topology: topology.MustFatTree(4, 2), Mode: CR}},
	}
	for _, g := range grid {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", g.name, seed)
			t.Run(name, func(t *testing.T) {
				denseTr, denseStats, denseCycle := runDiffWorkload(t, g.cfg, true, seed, 120, 5)
				eventTr, eventStats, eventCycle := runDiffWorkload(t, g.cfg, false, seed, 120, 5)
				if denseStats != eventStats {
					t.Errorf("stats diverge:\n dense %+v\n event %+v", denseStats, eventStats)
				}
				if denseCycle != eventCycle {
					t.Errorf("cycle diverges: dense=%d event=%d", denseCycle, eventCycle)
				}
				if len(denseTr) != len(eventTr) {
					t.Fatalf("transcript length diverges: dense=%d event=%d", len(denseTr), len(eventTr))
				}
				for i := range denseTr {
					if denseTr[i] != eventTr[i] {
						t.Fatalf("transcript diverges at %d:\n dense %s\n event %s", i, denseTr[i], eventTr[i])
					}
				}
			})
		}
	}
}

// TestIdleFastForwardAccounting pins the Stats.Cycles semantics of the
// fast-forward: skipped idle cycles count into Stats.Cycles exactly as if
// they had been ticked, and IdleSkipped reports how many were skipped.
func TestIdleFastForwardAccounting(t *testing.T) {
	cfg := Config{Topology: topology.MustMesh(8, 8), Mode: CR, RetryBackoff: 2048, KillTimeout: 4, PacketWords: 16}
	n := MustNew(cfg)
	// Two long worms racing east along the same row: the second blocks
	// behind the first past the kill timeout and lands in a long backoff.
	long := make([]network.Word, 16)
	if err := n.Inject(network.Packet{Src: 0, Dst: 7, Data: long}); err != nil {
		t.Fatal(err)
	}
	if err := n.Inject(network.Packet{Src: 1, Dst: 7, Data: long}); err != nil {
		t.Fatal(err)
	}
	if !n.TickUntilQuiet(1_000_000) {
		t.Fatal("did not drain")
	}
	if n.FlitStats().Kills == 0 {
		t.Fatal("workload never exercised CR kill/backoff; fast-forward untested")
	}
	if n.IdleSkipped() == 0 {
		t.Fatal("no idle cycles were fast-forwarded")
	}
	if n.FlitStats().Cycles != n.Cycle() {
		t.Fatalf("Stats.Cycles=%d diverges from Cycle()=%d", n.FlitStats().Cycles, n.Cycle())
	}
	// The dense stepper never skips but must land on the same cycle count.
	denseCfg := cfg
	denseCfg.Topology = topology.MustMesh(8, 8)
	dense := newEngine(t, denseCfg, true)
	_ = dense.Inject(network.Packet{Src: 0, Dst: 7, Data: long})
	_ = dense.Inject(network.Packet{Src: 1, Dst: 7, Data: long})
	if !dense.TickUntilQuiet(1_000_000) {
		t.Fatal("dense did not drain")
	}
	if dense.IdleSkipped() != 0 {
		t.Fatalf("dense reference fast-forwarded %d cycles", dense.IdleSkipped())
	}
	if dense.FlitStats() != n.FlitStats() {
		t.Fatalf("stats diverge:\n dense %+v\n event %+v", dense.FlitStats(), n.FlitStats())
	}
}

// TestQuietCountersMatchScan holds the O(1) quiet()/Pending() counters to
// the ground truth a full scan computes, at every step of a busy workload.
func TestQuietCountersMatchScan(t *testing.T) {
	cfg := Config{Topology: topology.MustMesh(4, 4), Mode: CR, KillTimeout: 8, RetryBackoff: 32}
	n := MustNew(cfg)
	rng := diffRNG(7)
	scanPending := func() (worms int, recv int) {
		for _, f := range n.flows {
			worms += f.pending()
		}
		for node := range n.recvq {
			recv += n.recvq[node].len()
		}
		return worms, recv
	}
	for step := 0; step < 4000; step++ {
		if rng.intn(4) == 0 {
			src := rng.intn(16)
			dst := rng.intn(16)
			if src != dst {
				_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: []network.Word{network.Word(step)}})
			}
		}
		n.tickOnce()
		if rng.intn(8) == 0 {
			node := rng.intn(16)
			_, _ = n.TryRecv(node)
		}
		queued, recv := scanPending()
		if n.queuedWorms != queued {
			t.Fatalf("step %d: queuedWorms=%d, scan says %d", step, n.queuedWorms, queued)
		}
		if n.recvqTotal != recv {
			t.Fatalf("step %d: recvqTotal=%d, scan says %d", step, n.recvqTotal, recv)
		}
		wantQuiet := n.inflight == 0 && queued == 0
		if n.quiet() != wantQuiet {
			t.Fatalf("step %d: quiet()=%v, scan says %v", step, n.quiet(), wantQuiet)
		}
		if want := n.inflight + queued + recv; n.Pending() != want {
			t.Fatalf("step %d: Pending()=%d, scan says %d", step, n.Pending(), want)
		}
	}
}

// TestLaneStateMatchesScan holds the per-lane engine state to the ground
// truth a full scan computes, after every tick of saturated CR and
// adaptive two-channel runs: no buffered flit belongs to a worm that is not
// in the network (so the path-only kill sweep missed nothing), owner slots
// and lane claims mirror each other one to one, each worm's claim list
// names exactly the lanes it holds, and the active-lane bitset covers every
// occupied lane with its counter equal to its popcount.
func TestLaneStateMatchesScan(t *testing.T) {
	// CR pads a worm to its path length, so only buffers deeper than a
	// short path let a whole worm gather in one lane with its claims
	// released — the case where the tail lane alone locates it.
	for _, cfg := range []Config{
		{Mode: CR, KillTimeout: 8, RetryBackoff: 32, BufferFlits: 3},
		{Mode: CR, KillTimeout: 8, RetryBackoff: 32, BufferFlits: 6},
		{Mode: Adaptive, VirtualChannels: 2, BufferFlits: 3},
	} {
		t.Run(fmt.Sprintf("%s-buf%d", cfg.Mode, cfg.BufferFlits), func(t *testing.T) {
			cfg.Topology = topology.MustMesh(6, 6)
			cfg.InjectQueue = 8
			n := MustNew(cfg)
			rng := diffRNG(5)
			for step := 0; step < 3000; step++ {
				for src := 0; src < 36; src++ {
					if rng.intn(4) == 0 {
						dst := (src + 1 + rng.intn(35)) % 36
						_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: make([]network.Word, rng.intn(5))})
					}
				}
				n.tickOnce()
				for node := 0; node < 36; node++ {
					for {
						if _, ok := n.TryRecv(node); !ok {
							break
						}
					}
				}
				if err := checkLaneState(n); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			if cfg.Mode == CR && n.FlitStats().Kills == 0 {
				t.Fatal("workload never killed a worm; the path-only sweep is untested")
			}
		})
	}
}

func checkLaneState(n *Net) error {
	held := map[*worm]map[int32]bool{}
	for id := range n.fifos {
		q := &n.fifos[id]
		for i := int32(0); i < q.n; i++ {
			if st := q.buf[q.at(i)].worm.state; st != wormInjecting && st != wormInFlight {
				return fmt.Errorf("lane %d holds a flit of a worm in state %d", id, st)
			}
		}
		if q.n > 0 && !n.active.has(int32(id)) {
			return fmt.Errorf("occupied lane %d missing from the active set", id)
		}
		if c := n.laneClaim[id]; c.worm != nil {
			if n.owner[c.out] != c.worm {
				return fmt.Errorf("claim of lane %d on output %d, but the output is owned by %p, not %p", id, c.out, n.owner[c.out], c.worm)
			}
			if held[c.worm] == nil {
				held[c.worm] = map[int32]bool{}
			}
			held[c.worm][int32(id)] = true
		}
	}
	owned := 0
	for out, w := range n.owner {
		if w == nil {
			continue
		}
		owned++
		claims := 0
		for in := range n.laneClaim {
			if c := n.laneClaim[in]; c.worm == w && c.out == int32(out) {
				claims++
			}
		}
		if claims != 1 {
			return fmt.Errorf("output %d owned with %d matching claims", out, claims)
		}
	}
	claimed := 0
	for w, lanes := range held {
		claimed += len(lanes)
		list := w.claims[w.claimHead:]
		if len(list) != len(lanes) {
			return fmt.Errorf("worm %d lists claims %v, holds %d lanes", w.id, list, len(lanes))
		}
		for _, in := range list {
			if !lanes[in] {
				return fmt.Errorf("worm %d lists a claim on lane %d it does not hold", w.id, in)
			}
		}
	}
	if owned != claimed {
		return fmt.Errorf("%d owned outputs, %d lane claims", owned, claimed)
	}
	pop := 0
	for _, word := range n.active.bits {
		pop += bits.OnesCount64(word)
	}
	if pop != n.active.n {
		return fmt.Errorf("active-lane counter %d, popcount %d", n.active.n, pop)
	}
	return nil
}
