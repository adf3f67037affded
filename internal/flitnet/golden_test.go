package flitnet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"msglayer/internal/network"
	"msglayer/internal/topology"
)

// TestSaturatedMeshGolden pins the engine's observable behaviour on an 8x8
// mesh driven past its saturation knee: a Stats digest and a hash of every
// delivered packet in drain order, per routing mode. The dense reference
// shares the per-lane step, head routing and kill sweep with the event
// engine, so TestDenseEventEquivalence cannot see a drift inside them; these
// pins were recorded before the hot path was rewritten and hold it to the
// exact results of the previous engine.
func TestSaturatedMeshGolden(t *testing.T) {
	grid := []struct {
		name        string
		cfg         Config
		stats, recv string
	}{
		{"deterministic", Config{Mode: Deterministic}, "839c3774f0c9a4e6", "7a60643b673eae90"},
		{"adaptive-vc2", Config{Mode: Adaptive, VirtualChannels: 2}, "138cbc4f4a1f1fc4", "8c047f47abd23c89"},
		{"cr", Config{Mode: CR}, "33b2a6d3dd905789", "ed788d2fa56c4feb"},
	}
	for _, g := range grid {
		t.Run(g.name, func(t *testing.T) {
			cfg := g.cfg
			cfg.Topology = topology.MustMesh(8, 8)
			cfg.BufferFlits = 3
			cfg.InjectQueue = 8
			st, recv := runSaturated(t, cfg, 11, 1500, 200)
			if cfg.Mode == CR && st.Kills == 0 {
				t.Fatal("CR run never killed a worm; the kill path is unpinned")
			}
			stats := digest(statsLine(st))
			if stats != g.stats || recv != g.recv {
				t.Errorf("digest drift: stats %s (want %s), deliveries %s (want %s)\n%s", stats, g.stats, recv, g.recv, statsLine(st))
			}
		})
	}
}

// runSaturated offers load/1000 packets per node per cycle for the given
// number of cycles, reading every node's receive queue each cycle, then
// drains. It returns the final Stats and a hash of the delivered packets.
func runSaturated(t *testing.T, cfg Config, seed uint64, cycles, load int) (Stats, string) {
	t.Helper()
	n := MustNew(cfg)
	nodes := n.Nodes()
	rng := diffRNG(seed)
	h := sha256.New()
	drain := func() {
		for node := 0; node < nodes; node++ {
			for {
				p, ok := n.TryRecv(node)
				if !ok {
					break
				}
				hashPacket(h, node, p)
			}
		}
	}
	for c := 0; c < cycles; c++ {
		for src := 0; src < nodes; src++ {
			if rng.intn(1000) >= load {
				continue
			}
			dst := rng.intn(nodes - 1)
			if dst >= src {
				dst++
			}
			data := make([]network.Word, rng.intn(n.PacketWords()+1))
			for i := range data {
				data[i] = network.Word(rng.next())
			}
			_ = n.Inject(network.Packet{Src: src, Dst: dst, Data: data})
		}
		n.Tick(1)
		drain()
	}
	if !n.TickUntilQuiet(1_000_000) {
		t.Fatalf("did not drain: pending=%d", n.Pending())
	}
	drain()
	return n.FlitStats(), fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func hashPacket(h hash.Hash, node int, p network.Packet) {
	var b [8]byte
	for _, v := range []uint64{uint64(node), uint64(p.Src), uint64(p.Dst), uint64(len(p.Data))} {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, w := range p.Data {
		binary.LittleEndian.PutUint64(b[:], uint64(w))
		h.Write(b[:])
	}
}

// statsLine spells out every Stats field; fmt's %v would print only the
// embedded network.Stats through its String method.
func statsLine(s Stats) string {
	return fmt.Sprintf("%s kills=%d retries=%d cycles=%d moves=%d pads=%d failed=%d latency=%d/%d/%d",
		s.Stats, s.Kills, s.Retries, s.Cycles, s.FlitMoves, s.PadFlits, s.FailedWorms, s.LatencySum, s.LatencyMax, s.LatencyCount)
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return fmt.Sprintf("%x", sum[:8])
}
