package flitnet

import (
	"errors"
	"testing"
	"testing/quick"

	"msglayer/internal/network"
	"msglayer/internal/topology"
)

func meshNet(t *testing.T, w, h int, mode Mode) *Net {
	t.Helper()
	return MustNew(Config{Topology: topology.MustMesh(w, h), Mode: mode})
}

func treeNet(t *testing.T, k, lv int, mode Mode) *Net {
	t.Helper()
	return MustNew(Config{Topology: topology.MustFatTree(k, lv), Mode: mode})
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("accepted nil topology")
	}
	if _, err := New(Config{Topology: topology.MustMesh(2, 2), PacketWords: -1}); err == nil {
		t.Error("accepted negative packet size")
	}
	if _, err := New(Config{Topology: topology.MustMesh(2, 2), BufferFlits: 1}); err == nil {
		t.Error("accepted one-flit buffers")
	}
	for _, shards := range []int{0, 1} {
		if _, err := New(Config{Topology: topology.MustMesh(2, 2), Shards: shards}); err != nil {
			t.Errorf("Shards %d rejected: %v", shards, err)
		}
	}
	for _, shards := range []int{-1, 2} {
		if _, err := New(Config{Topology: topology.MustMesh(2, 2), Shards: shards}); err == nil {
			t.Errorf("accepted Shards %d", shards)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustNew(Config{})
}

func TestInjectValidation(t *testing.T) {
	n := meshNet(t, 2, 2, Deterministic)
	if err := n.Inject(network.Packet{Src: -1, Dst: 0}); !errors.Is(err, network.ErrBadPacket) {
		t.Errorf("bad src = %v", err)
	}
	if err := n.Inject(network.Packet{Src: 0, Dst: 9}); !errors.Is(err, network.ErrBadPacket) {
		t.Errorf("bad dst = %v", err)
	}
	if err := n.Inject(network.Packet{Src: 0, Dst: 1, Data: make([]network.Word, 9)}); !errors.Is(err, network.ErrBadPacket) {
		t.Errorf("oversize = %v", err)
	}
}

func TestBasicDeliveryOnMesh(t *testing.T) {
	n := meshNet(t, 3, 3, Deterministic)
	payload := []network.Word{10, 20, 30, 40}
	if err := n.Inject(network.Packet{Src: 0, Dst: 8, Tag: 5, Head: 77, Data: payload}); err != nil {
		t.Fatal(err)
	}
	if !n.TickUntilQuiet(1000) {
		t.Fatal("network did not drain")
	}
	p, ok := n.TryRecv(8)
	if !ok {
		t.Fatal("packet not delivered")
	}
	if p.Src != 0 || p.Tag != 5 || p.Head != 77 || len(p.Data) != 4 || p.Data[3] != 40 {
		t.Errorf("delivered %+v", p)
	}
	if _, ok := n.TryRecv(8); ok {
		t.Error("phantom second delivery")
	}
	if n.Stats().Delivered != 1 || n.Stats().Injected != 1 {
		t.Errorf("stats = %+v", n.Stats())
	}
}

func TestAllPairsDeliver(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    *Net
	}{
		{"mesh-det", meshNet(t, 3, 2, Deterministic)},
		{"tree-det", treeNet(t, 2, 2, Deterministic)},
		{"tree-adaptive", treeNet(t, 2, 2, Adaptive)},
		{"mesh-cr", meshNet(t, 3, 2, CR)},
	} {
		nodes := tc.n.Nodes()
		want := 0
		for src := 0; src < nodes; src++ {
			for dst := 0; dst < nodes; dst++ {
				if src == dst {
					continue
				}
				err := tc.n.Inject(network.Packet{
					Src: src, Dst: dst,
					Head: network.Word(src*100 + dst),
					Data: []network.Word{1},
				})
				if err != nil {
					t.Fatalf("%s: inject %d->%d: %v", tc.name, src, dst, err)
				}
				want++
			}
		}
		if !tc.n.TickUntilQuiet(100000) {
			t.Fatalf("%s: network did not drain (pending=%d)", tc.name, tc.n.Pending())
		}
		got := 0
		for node := 0; node < nodes; node++ {
			for {
				p, ok := tc.n.TryRecv(node)
				if !ok {
					break
				}
				if int(p.Head)%100 != node {
					t.Errorf("%s: node %d got packet labeled %d", tc.name, node, p.Head)
				}
				got++
			}
		}
		if got != want {
			t.Errorf("%s: delivered %d of %d packets", tc.name, got, want)
		}
	}
}

// collectFlowOrder injects per-flow-sequenced packets and returns, per
// flow, the order of delivered sequence numbers.
func collectFlowOrder(t *testing.T, n *Net, flows [][2]int, perFlow int) map[[2]int][]int {
	t.Helper()
	sent := map[[2]int]int{}
	// Interleave injections across flows to keep the network busy.
	for seq := 0; seq < perFlow; seq++ {
		for _, fl := range flows {
			p := network.Packet{
				Src: fl[0], Dst: fl[1],
				Head: network.Word(seq),
				Data: []network.Word{network.Word(seq)},
			}
			for {
				err := n.Inject(p)
				if err == nil {
					break
				}
				if errors.Is(err, network.ErrBackpressure) {
					n.Tick(1)
					continue
				}
				t.Fatal(err)
			}
			sent[fl]++
		}
		n.Tick(1)
	}
	if !n.TickUntilQuiet(500000) {
		t.Fatalf("network did not drain (pending=%d)", n.Pending())
	}
	got := map[[2]int][]int{}
	for node := 0; node < n.Nodes(); node++ {
		for {
			p, ok := n.TryRecv(node)
			if !ok {
				break
			}
			key := [2]int{p.Src, node}
			got[key] = append(got[key], int(p.Head))
		}
	}
	for fl, count := range sent {
		if len(got[fl]) != count {
			t.Fatalf("flow %v delivered %d of %d", fl, len(got[fl]), count)
		}
	}
	return got
}

func inversions(seqs []int) int {
	inv := 0
	maxSeen := -1
	for _, s := range seqs {
		if s < maxSeen {
			inv++
		}
		if s > maxSeen {
			maxSeen = s
		}
	}
	return inv
}

// hotspotFlows is a contention-heavy workload: three leaves all sending to
// node 15, so worms of one flow queue behind cross traffic at the preferred
// top router and adaptive routing diverts successors onto other tops.
var hotspotFlows = [][2]int{{3, 15}, {7, 15}, {11, 15}}

func hotspotNet(t *testing.T, mode Mode) *Net {
	t.Helper()
	return MustNew(Config{
		Topology:    topology.MustFatTree(4, 2),
		Mode:        mode,
		BufferFlits: 3,
	})
}

// Deterministic routing is single-path and therefore order-preserving on
// every flow, even under hotspot contention.
func TestDeterministicPreservesOrder(t *testing.T) {
	got := collectFlowOrder(t, hotspotNet(t, Deterministic), hotspotFlows, 40)
	for fl, seqs := range got {
		if inv := inversions(seqs); inv != 0 {
			t.Errorf("flow %v reordered %d times under deterministic routing", fl, inv)
		}
	}
}

// Adaptive routing on the fat tree's redundant up links reorders packets
// within flows under contention — the mechanism behind the paper's
// "arbitrary delivery order" network feature.
func TestAdaptiveRoutingReorders(t *testing.T) {
	got := collectFlowOrder(t, hotspotNet(t, Adaptive), hotspotFlows, 40)
	total := 0
	for _, seqs := range got {
		total += inversions(seqs)
	}
	if total == 0 {
		t.Error("adaptive routing never reordered; the multipath mechanism is not being exercised")
	}
}

// The same workload under CR mode arrives in order on every flow: CR
// serializes each flow's worms and routes deterministically.
func TestCRPreservesOrderUnderLoad(t *testing.T) {
	got := collectFlowOrder(t, hotspotNet(t, CR), hotspotFlows, 15)
	for fl, seqs := range got {
		if inv := inversions(seqs); inv != 0 {
			t.Errorf("flow %v reordered %d times under CR", fl, inv)
		}
	}
}

// CR header rejection: a destination without resources rejects the header;
// the worm is killed, retried, and delivered once resources appear — and
// order within the flow survives the retries.
func TestCRHeaderRejectionAndRetry(t *testing.T) {
	n := meshNet(t, 3, 1, CR)
	budget := 0
	if err := n.SetAcceptor(2, func(p network.Packet) bool {
		if budget <= 0 {
			return false
		}
		budget--
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for seq := 0; seq < 3; seq++ {
		if err := n.Inject(network.Packet{Src: 0, Dst: 2, Head: network.Word(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	// Run a while with acceptance denied: kills accumulate, nothing lands.
	n.Tick(200)
	if _, ok := n.TryRecv(2); ok {
		t.Fatal("rejected worm was delivered")
	}
	if n.FlitStats().Kills == 0 || n.Stats().Rejected == 0 {
		t.Fatalf("expected kills and rejections: %+v", n.FlitStats())
	}
	// Open the gate; all three arrive, in order.
	budget = 1 << 30
	if !n.TickUntilQuiet(100000) {
		t.Fatal("did not drain after acceptance opened")
	}
	for seq := 0; seq < 3; seq++ {
		p, ok := n.TryRecv(2)
		if !ok || p.Head != network.Word(seq) {
			t.Fatalf("delivery %d = %+v ok=%v", seq, p, ok)
		}
	}
	if n.FlitStats().Retries == 0 {
		t.Error("no retries recorded")
	}
}

// Retry exhaustion fails the injection rather than spinning forever.
func TestCRRetryExhaustion(t *testing.T) {
	n := MustNew(Config{
		Topology:     topology.MustMesh(2, 1),
		Mode:         CR,
		MaxRetries:   3,
		RetryBackoff: 2,
	})
	if err := n.SetAcceptor(1, func(network.Packet) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if err := n.Inject(network.Packet{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if !n.TickUntilQuiet(10000) {
		t.Fatal("did not drain")
	}
	st := n.FlitStats()
	if st.FailedWorms != 1 {
		t.Errorf("failed worms = %d, want 1", st.FailedWorms)
	}
	if st.Kills != 4 { // initial attempt + 3 retries
		t.Errorf("kills = %d, want 4", st.Kills)
	}
}

// CR pads short worms to the path length so the tail's acceptance is an
// end-to-end acknowledgement; the payload is unaffected.
func TestCRPadding(t *testing.T) {
	n := meshNet(t, 5, 1, CR)
	if err := n.Inject(network.Packet{Src: 0, Dst: 4, Data: []network.Word{42}}); err != nil {
		t.Fatal(err)
	}
	if n.FlitStats().PadFlits == 0 {
		t.Error("no padding for a 3-flit worm over a 5-router path")
	}
	if !n.TickUntilQuiet(1000) {
		t.Fatal("did not drain")
	}
	p, ok := n.TryRecv(4)
	if !ok || len(p.Data) != 1 || p.Data[0] != 42 {
		t.Errorf("delivered %+v ok=%v", p, ok)
	}
}

// The CR kill timeout recovers a worm blocked by contention: it is killed,
// retried, and eventually delivered.
func TestCRKillTimeoutOnContention(t *testing.T) {
	n := MustNew(Config{
		Topology:    topology.MustMesh(3, 1),
		Mode:        CR,
		BufferFlits: 2,
		KillTimeout: 4,
	})
	// A long worm 0->2 occupies router 1's east output for many cycles;
	// a worm 1->2 must cross the same output and blocks past the timeout.
	long := make([]network.Word, 4)
	if err := n.Inject(network.Packet{Src: 0, Dst: 2, Head: 1, Data: long}); err != nil {
		t.Fatal(err)
	}
	n.Tick(3) // let the long worm claim the path
	if err := n.Inject(network.Packet{Src: 1, Dst: 2, Head: 2}); err != nil {
		t.Fatal(err)
	}
	if !n.TickUntilQuiet(10000) {
		t.Fatal("did not drain")
	}
	heads := map[network.Word]bool{}
	for {
		p, ok := n.TryRecv(2)
		if !ok {
			break
		}
		heads[p.Head] = true
	}
	if !heads[1] || !heads[2] {
		t.Fatalf("deliveries = %v, want both worms", heads)
	}
}

func TestInjectQueueBackpressure(t *testing.T) {
	n := MustNew(Config{Topology: topology.MustMesh(2, 1), InjectQueue: 2})
	for i := 0; i < 2; i++ {
		if err := n.Inject(network.Packet{Src: 0, Dst: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Inject(network.Packet{Src: 0, Dst: 1}); !errors.Is(err, network.ErrBackpressure) {
		t.Fatalf("third inject = %v, want backpressure", err)
	}
	// Draining frees the queue.
	if !n.TickUntilQuiet(1000) {
		t.Fatal("did not drain")
	}
	if err := n.Inject(network.Packet{Src: 0, Dst: 1}); err != nil {
		t.Errorf("inject after drain = %v", err)
	}
}

func TestTryRecvBadNode(t *testing.T) {
	n := meshNet(t, 2, 1, Deterministic)
	if _, ok := n.TryRecv(-1); ok {
		t.Error("TryRecv(-1) returned a packet")
	}
	if _, ok := n.TryRecv(5); ok {
		t.Error("TryRecv(5) returned a packet")
	}
}

func TestSetAcceptorBadNode(t *testing.T) {
	n := meshNet(t, 2, 1, CR)
	if err := n.SetAcceptor(7, nil); err == nil {
		t.Error("SetAcceptor(7) accepted")
	}
}

func TestPayloadIsolation(t *testing.T) {
	n := meshNet(t, 2, 1, Deterministic)
	buf := []network.Word{1, 2}
	if err := n.Inject(network.Packet{Src: 0, Dst: 1, Data: buf}); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	n.TickUntilQuiet(1000)
	p, _ := n.TryRecv(1)
	if p.Data[0] != 1 {
		t.Error("payload aliased the caller's buffer")
	}
}

func TestModeAndNameStrings(t *testing.T) {
	if Deterministic.String() != "deterministic" || Adaptive.String() != "adaptive" || CR.String() != "cr" {
		t.Error("mode strings wrong")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
	n := meshNet(t, 2, 2, CR)
	if n.Name() != "flitnet(mesh(2x2),cr)" {
		t.Errorf("Name = %q", n.Name())
	}
}

// Two identical runs produce identical statistics — cycle-stepped
// determinism.
func TestDeterminism(t *testing.T) {
	run := func() Stats {
		n := MustNew(Config{
			Topology:    topology.MustFatTree(2, 3),
			Mode:        Adaptive,
			BufferFlits: 2,
		})
		for seq := 0; seq < 10; seq++ {
			for src := 0; src < 8; src++ {
				p := network.Packet{Src: src, Dst: 7 - src, Data: []network.Word{network.Word(seq)}}
				for n.Inject(p) != nil {
					n.Tick(1)
				}
			}
			n.Tick(2)
		}
		n.TickUntilQuiet(100000)
		return n.FlitStats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("nondeterministic runs:\n%+v\n%+v", a, b)
	}
}

// Property: on random meshes under CR, random traffic always drains with
// every flow in order — the substrate contract the Section 4 messaging
// layer depends on.
func TestCRContractProperty(t *testing.T) {
	prop := func(wRaw, hRaw uint8, plan []uint8) bool {
		w := int(wRaw%3) + 2
		h := int(hRaw%2) + 1
		n := MustNew(Config{Topology: topology.MustMesh(w, h), Mode: CR})
		if len(plan) > 30 {
			plan = plan[:30]
		}
		seqs := map[flowKey]int{}
		for _, b := range plan {
			src := int(b) % n.Nodes()
			dst := int(b>>3) % n.Nodes()
			if src == dst {
				continue
			}
			key := flowKey{src, dst}
			p := network.Packet{Src: src, Dst: dst, Head: network.Word(seqs[key])}
			for {
				err := n.Inject(p)
				if err == nil {
					break
				}
				if !errors.Is(err, network.ErrBackpressure) {
					return false
				}
				n.Tick(1)
			}
			seqs[key]++
		}
		if !n.TickUntilQuiet(200000) {
			return false
		}
		expect := map[flowKey]network.Word{}
		for node := 0; node < n.Nodes(); node++ {
			for {
				p, ok := n.TryRecv(node)
				if !ok {
					break
				}
				key := flowKey{p.Src, node}
				if p.Head != expect[key] {
					return false
				}
				expect[key]++
			}
		}
		for key, sent := range seqs {
			if int(expect[key]) != sent {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVirtualChannelConfig(t *testing.T) {
	if _, err := New(Config{Topology: topology.MustMesh(2, 1), VirtualChannels: 9}); err == nil {
		t.Error("accepted 9 virtual channels")
	}
	if _, err := New(Config{Topology: topology.MustMesh(2, 1), VirtualChannels: -1}); err == nil {
		t.Error("accepted negative virtual channels")
	}
	// CR mode forces a single channel.
	n := MustNew(Config{Topology: topology.MustMesh(2, 1), Mode: CR, VirtualChannels: 4})
	if err := n.Inject(network.Packet{Src: 0, Dst: 1}); err != nil {
		t.Fatal(err)
	}
	if !n.TickUntilQuiet(1000) {
		t.Fatal("CR with requested VCs did not drain")
	}
}

// Virtual channels let two worms share a physical link: with one channel
// the second worm waits for the first's tail; with two it interleaves and
// finishes much sooner.
func TestVirtualChannelsInterleave(t *testing.T) {
	finish := func(vcs int) (short uint64) {
		n := MustNew(Config{
			Topology:        topology.MustMesh(3, 1),
			Mode:            Deterministic,
			BufferFlits:     2,
			VirtualChannels: vcs,
			PacketWords:     64,
		})
		// A long worm 0 -> 2 and a short worm 1 -> 2 share the final
		// link and the ejection port.
		long := network.Packet{Src: 0, Dst: 2, Head: 1, Data: make([]network.Word, 64)}
		shortP := network.Packet{Src: 1, Dst: 2, Head: 2, Data: make([]network.Word, 1)}
		if err := n.Inject(long); err != nil {
			t.Fatal(err)
		}
		n.Tick(3) // the long worm claims the shared path first
		if err := n.Inject(shortP); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10000; i++ {
			n.Tick(1)
			for {
				p, ok := n.TryRecv(2)
				if !ok {
					break
				}
				if p.Head == 2 && short == 0 {
					short = n.Cycle()
				}
			}
			if n.quiet() {
				break
			}
		}
		if short == 0 {
			t.Fatalf("vcs=%d: short worm never delivered", vcs)
		}
		return short
	}
	one := finish(1)
	two := finish(2)
	if !(two < one) {
		t.Errorf("short worm finished at cycle %d with 2 VCs vs %d with 1; expected interleaving to help", two, one)
	}
}

// Virtual channels change arrival order at a shared destination — one of
// the paper's listed sources of arbitrary delivery order. A long worm from
// node 0 and a later short worm from node 1 converge on node 2: with one
// channel the wormhole serializes whole packets at the shared ejection
// port (long wins); with two channels the short worm ejects on its own
// lane and arrives first.
func TestVirtualChannelsCanReorderArrivals(t *testing.T) {
	firstArrival := func(vcs int) network.Word {
		n := MustNew(Config{
			Topology:        topology.MustMesh(3, 1),
			Mode:            Deterministic,
			BufferFlits:     2,
			VirtualChannels: vcs,
			PacketWords:     64,
		})
		if err := n.Inject(network.Packet{Src: 0, Dst: 2, Head: 1, Data: make([]network.Word, 64)}); err != nil {
			t.Fatal(err)
		}
		n.Tick(3) // the long worm claims the path and starts ejecting
		if err := n.Inject(network.Packet{Src: 1, Dst: 2, Head: 2, Data: make([]network.Word, 1)}); err != nil {
			t.Fatal(err)
		}
		if !n.TickUntilQuiet(100000) {
			t.Fatal("did not drain")
		}
		first, ok := n.TryRecv(2)
		if !ok {
			t.Fatal("nothing delivered")
		}
		return first.Head
	}
	if got := firstArrival(1); got != 1 {
		t.Errorf("single channel: first arrival = worm %d, want the long worm (1)", got)
	}
	if got := firstArrival(2); got != 2 {
		t.Errorf("two channels: first arrival = worm %d, want the short worm (2)", got)
	}
}

// Heavy seeded random traffic on an adaptive mesh with an escape channel
// drains without deadlock — the Duato discipline at work. (Adaptive mesh
// routing with a single channel has cyclic channel dependencies and is not
// exercised.)
func TestAdaptiveMeshWithEscapeChannelDrains(t *testing.T) {
	n := MustNew(Config{
		Topology:        topology.MustMesh(4, 4),
		Mode:            Adaptive,
		BufferFlits:     2,
		VirtualChannels: 3,
	})
	seed := uint64(12345)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	sent := 0
	for i := 0; i < 300; i++ {
		src := next(16)
		dst := next(16)
		if src == dst {
			continue
		}
		p := network.Packet{Src: src, Dst: dst, Data: []network.Word{network.Word(i)}}
		for {
			err := n.Inject(p)
			if err == nil {
				sent++
				break
			}
			if !errors.Is(err, network.ErrBackpressure) {
				t.Fatal(err)
			}
			n.Tick(1)
		}
		if i%3 == 0 {
			n.Tick(1)
		}
	}
	if !n.TickUntilQuiet(1000000) {
		t.Fatalf("adaptive mesh with escape channel did not drain (pending=%d)", n.Pending())
	}
	got := 0
	for node := 0; node < 16; node++ {
		for {
			if _, ok := n.TryRecv(node); !ok {
				break
			}
			got++
		}
	}
	if got != sent {
		t.Errorf("delivered %d of %d", got, sent)
	}
}

func TestLatencyTracking(t *testing.T) {
	n := meshNet(t, 4, 1, Deterministic)
	if err := n.Inject(network.Packet{Src: 0, Dst: 3, Data: []network.Word{1}}); err != nil {
		t.Fatal(err)
	}
	if !n.TickUntilQuiet(1000) {
		t.Fatal("did not drain")
	}
	st := n.FlitStats()
	if st.LatencyCount != 1 || st.LatencySum == 0 {
		t.Fatalf("latency stats = %+v", st)
	}
	if st.LatencyMax != st.LatencySum {
		t.Errorf("single packet: max %d != sum %d", st.LatencyMax, st.LatencySum)
	}
	if st.MeanLatency() != float64(st.LatencySum) {
		t.Errorf("MeanLatency = %f", st.MeanLatency())
	}
	// A longer path has higher latency.
	n2 := meshNet(t, 8, 1, Deterministic)
	if err := n2.Inject(network.Packet{Src: 0, Dst: 7, Data: []network.Word{1}}); err != nil {
		t.Fatal(err)
	}
	n2.TickUntilQuiet(1000)
	if n2.FlitStats().LatencySum <= st.LatencySum {
		t.Errorf("7-hop latency %d not above 3-hop latency %d",
			n2.FlitStats().LatencySum, st.LatencySum)
	}
	// Empty stats report zero mean.
	if (Stats{}).MeanLatency() != 0 {
		t.Error("empty MeanLatency not zero")
	}
}
