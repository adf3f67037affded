package twin

import (
	"testing"

	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
)

// TestKnotExactness: the interpolant must reproduce the committed tables at
// the knot loads exactly — the twin is anchored to measurement there.
func TestKnotExactness(t *testing.T) {
	for _, c := range calibratedRegimes {
		for ki, load := range calKnotLoads {
			p, err := (NetPoint{Regime: c.Regime, Load: load, Cycles: CalCycles}).PredictNet()
			if err != nil {
				t.Fatalf("%s load %g: %v", c.Regime, load, err)
			}
			if !p.Calibrated {
				t.Fatalf("%s load %g: not calibrated", c.Regime, load)
			}
			if p.MeanLatency != c.Lat[ki] {
				t.Errorf("%s load %g: lat %v, table %v", c.Regime, load, p.MeanLatency, c.Lat[ki])
			}
			if p.Throughput != c.Thru[ki]*1000 {
				t.Errorf("%s load %g: thru %v, table %v", c.Regime, load, p.Throughput, c.Thru[ki]*1000)
			}
			nodes, _ := c.Regime.Nodes()
			if want := round(c.Moves[ki] * float64(nodes) * float64(CalCycles)); p.FlitMoves != want {
				t.Errorf("%s load %g: moves %d, want %d", c.Regime, load, p.FlitMoves, want)
			}
		}
	}
}

// TestLatencyMonotone: the committed latency curves rise with load, and
// PCHIP must preserve that between knots — no oscillation at the knee.
func TestLatencyMonotone(t *testing.T) {
	for _, r := range CalibratedRegimes() {
		prev := 0.0
		for load := 0.01; load <= 0.35; load += 0.005 {
			p, err := (NetPoint{Regime: r, Load: load, Cycles: CalCycles}).PredictNet()
			if err != nil {
				t.Fatalf("%s load %g: %v", r, load, err)
			}
			if p.MeanLatency < prev {
				t.Errorf("%s: latency dropped to %v at load %g (was %v)", r, p.MeanLatency, load, prev)
			}
			if p.Contention < 1 {
				t.Errorf("%s load %g: contention factor %v < 1", r, load, p.Contention)
			}
			prev = p.MeanLatency
		}
	}
}

// TestStructuralFallback: an uncommitted shape predicts via the same-mode
// donor, scaled by path length, and is flagged uncalibrated.
func TestStructuralFallback(t *testing.T) {
	small, err := (NetPoint{Regime: Regime{Topology: "mesh", A: 4, B: 4, Mode: flitnet.Deterministic, VCs: 1}, Load: 0.1, Cycles: CalCycles}).PredictNet()
	if err != nil {
		t.Fatal(err)
	}
	big, err := (NetPoint{Regime: Regime{Topology: "mesh", A: 8, B: 8, Mode: flitnet.Deterministic, VCs: 1}, Load: 0.1, Cycles: CalCycles}).PredictNet()
	if err != nil {
		t.Fatal(err)
	}
	if !small.Calibrated || big.Calibrated {
		t.Fatalf("calibrated flags: small %v, big %v", small.Calibrated, big.Calibrated)
	}
	if big.MeanLatency <= small.MeanLatency {
		t.Errorf("8x8 mesh latency %v not above 4x4's %v", big.MeanLatency, small.MeanLatency)
	}
	if big.MeanLinks <= small.MeanLinks {
		t.Errorf("8x8 mean links %v not above 4x4's %v", big.MeanLinks, small.MeanLinks)
	}
}

// TestPredictNetErrors: invalid points fail loudly, not with silent junk.
func TestPredictNetErrors(t *testing.T) {
	ok := Regime{Topology: "mesh", A: 4, B: 4, Mode: flitnet.Deterministic, VCs: 1}
	cases := []struct {
		name string
		pt   NetPoint
	}{
		{"zero load", NetPoint{Regime: ok, Load: 0, Cycles: 100}},
		{"overload", NetPoint{Regime: ok, Load: 1.5, Cycles: 100}},
		{"no cycles", NetPoint{Regime: ok, Load: 0.1, Cycles: 0}},
		{"bad topology", NetPoint{Regime: Regime{Topology: "torus", A: 4, B: 4}, Load: 0.1, Cycles: 100}},
		{"bad mode", NetPoint{Regime: Regime{Topology: "mesh", A: 4, B: 4, Mode: flitnet.Mode(99), VCs: 1}, Load: 0.1, Cycles: 100}},
	}
	for _, c := range cases {
		if _, err := c.pt.PredictNet(); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestMeanLinksStructure: closed-form path lengths match hand-computed
// values for the calibrated shapes.
func TestMeanLinksStructure(t *testing.T) {
	mesh := Regime{Topology: "mesh", A: 4, B: 4}
	got, err := mesh.MeanLinks()
	if err != nil {
		t.Fatal(err)
	}
	// E|dx| = E|dy| = (16-1)/12 = 1.25; conditioned on dst != src:
	// 2.5 * 16/15 + 2 = 14/3.
	if want := 2.5*16/15 + 2; !close(got, want) {
		t.Errorf("mesh(4,4) mean links %v, want %v", got, want)
	}
	ft := Regime{Topology: "fattree", A: 4, B: 2}
	got, err = ft.MeanLinks()
	if err != nil {
		t.Fatal(err)
	}
	// 3/15 of peers share a leaf router (1 router), 12/15 need the root
	// (3 routers): (3*1 + 12*3)/15 + 1 = 3.6.
	if want := 39.0/15 + 1; !close(got, want) {
		t.Errorf("fattree(4,2) mean links %v, want %v", got, want)
	}
}

// TestWormFlits: CR pads short payloads to the hardware packet.
func TestWormFlits(t *testing.T) {
	det := Regime{Mode: flitnet.Deterministic}
	cr := Regime{Mode: flitnet.CR}
	if got := det.WormFlits(1, 4); got != 3 {
		t.Errorf("det 1-word worm: %d flits, want 3", got)
	}
	if got := cr.WormFlits(1, 4); got != 6 {
		t.Errorf("cr 1-word worm: %d flits, want 6", got)
	}
	if got := cr.WormFlits(8, 4); got != 10 {
		t.Errorf("cr 8-word worm: %d flits, want 10", got)
	}
}

// TestPredictProtoExact: the protocol twin must reproduce the simulator's
// instruction totals bit for bit on every canonical scenario — this is the
// exactness claim the package documentation makes.
func TestPredictProtoExact(t *testing.T) {
	for _, pt := range protoPoints() {
		cells, err := experiments.RunCanonical(pt.Scenario, pt.Words)
		if err != nil {
			t.Fatalf("%s words %d: %v", pt.Scenario, pt.Words, err)
		}
		pred, err := pt.PredictProto()
		if err != nil {
			t.Fatalf("%s words %d: %v", pt.Scenario, pt.Words, err)
		}
		if got := cellsTotal(cells); pred.Total != got {
			t.Errorf("%s words %d: twin %d instr, simulator %d", pt.Scenario, pt.Words, pred.Total, got)
		}
	}
}

// TestPredictProtoErrors: unknown scenarios fail loudly.
func TestPredictProtoErrors(t *testing.T) {
	if _, err := (ProtoPoint{Scenario: "warp", Words: 16}).PredictProto(); err == nil {
		t.Error("unknown scenario: no error")
	}
}

// TestPredictProtoRejectsOverflow: a size whose instruction count would
// wrap uint64 is an error rather than a wrapped total, while sizes below
// the bound still grow with the message.
func TestPredictProtoRejectsOverflow(t *testing.T) {
	for _, sc := range []string{"cm5-finite", "cm5-stream", "cr-finite", "cr-stream"} {
		if p, err := (ProtoPoint{Scenario: sc, Words: 1 << 62}).PredictProto(); err == nil {
			t.Errorf("%s at 2^62 words: total %d, want an overflow error", sc, p.Total)
		}
		small, err := (ProtoPoint{Scenario: sc, Words: 1 << 52}).PredictProto()
		if err != nil {
			t.Fatalf("%s at 2^52 words: %v", sc, err)
		}
		large, err := (ProtoPoint{Scenario: sc, Words: 1 << 53}).PredictProto()
		if err != nil {
			t.Fatalf("%s at 2^53 words: %v", sc, err)
		}
		if large.Total <= small.Total {
			t.Errorf("%s: 2^53 words total %d <= 2^52 words total %d", sc, large.Total, small.Total)
		}
	}
}

// TestPredictNetZeroAlloc: O(1) evaluation means zero heap traffic — this
// is what makes the 10^4x speedup hold at sweep scale.
func TestPredictNetZeroAlloc(t *testing.T) {
	pt := NetPoint{Regime: CalibratedRegimes()[0], Load: 0.123, Cycles: CalCycles}
	allocs := testing.AllocsPerRun(200, func() {
		p, err := pt.PredictNet()
		if err != nil {
			t.Fatal(err)
		}
		sinkPrediction = p
	})
	if allocs != 0 {
		t.Errorf("PredictNet allocates %v objects per call, want 0", allocs)
	}
}

// BenchmarkTwinEval is the gated evaluation benchmark: one closed-form
// prediction per op, zero allocs (checked in CI's -benchmem step).
func BenchmarkTwinEval(b *testing.B) {
	pt := NetPoint{Regime: CalibratedRegimes()[0], Load: 0.123, Cycles: CalCycles}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pt.PredictNet()
		if err != nil {
			b.Fatal(err)
		}
		sinkPrediction = p
	}
}

func close(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}
