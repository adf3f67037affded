// Package twin is the closed-form analytic twin of the whole simulator:
// O(1) predictions of end-to-end flit-network behaviour (mean latency,
// delivered throughput, flit moves, drain, contention factor) and of the
// protocol instruction counts (via internal/analytic) as functions of
// topology, routing mode, virtual-channel count, offered load, protocol,
// and message size — without running a simulation.
//
// The network side is a calibrated model: per operating regime (topology ×
// mode × VC count) the package commits the simulator's measured values at a
// fixed set of knot loads (tables.go, regenerated with `twin -fit`) and
// evaluates between knots with a monotone cubic Hermite interpolant
// (Fritsch–Carlson PCHIP), which preserves the saturating shape of the
// latency/load curve without polynomial oscillation around the contention
// knee. The protocol side is exact: internal/analytic reproduces the
// simulator's instruction counts bit for bit on the canonical scenarios.
//
// Trust comes from calibration gating, not from the functional form: the
// calibration harness (calibrate.go) sweeps twin-vs-simulator across a
// committed grid that deliberately includes loads *between* the knots, so
// the reported MAPE measures genuine model error, and CI fails when it
// regresses (CAMP-style closed-form bounds validated against execution).
package twin

import (
	"fmt"
	"math"

	"msglayer/internal/flitnet"
)

// Regime identifies one calibrated operating regime of the flit network.
type Regime struct {
	// Topology is "fattree" or "mesh".
	Topology string
	// A, B are the shape: (k, levels) for a fat tree, (w, h) for a mesh.
	A, B int
	// Mode is the routing mode.
	Mode flitnet.Mode
	// VCs is the virtual-channel count.
	VCs int
}

// String names the regime the way reports key it.
func (r Regime) String() string {
	return fmt.Sprintf("%s(%d,%d)/%s/vc%d", r.Topology, r.A, r.B, r.Mode, r.VCs)
}

// ParseMode maps the CLI mode names onto flitnet routing modes.
func ParseMode(s string) (flitnet.Mode, error) {
	switch s {
	case "deterministic":
		return flitnet.Deterministic, nil
	case "adaptive":
		return flitnet.Adaptive, nil
	case "cr":
		return flitnet.CR, nil
	}
	return 0, fmt.Errorf("twin: unknown mode %q (deterministic, adaptive, cr)", s)
}

// Nodes returns the processing-node count of the regime's topology.
func (r Regime) Nodes() (int, error) {
	switch r.Topology {
	case "fattree":
		n := 1
		for i := 0; i < r.B; i++ {
			n *= r.A
		}
		return n, nil
	case "mesh":
		return r.A * r.B, nil
	}
	return 0, fmt.Errorf("twin: unknown topology %q", r.Topology)
}

// MeanLinks returns the structural expectation of the number of link
// traversals (injection channel, router-to-router links, ejection channel)
// a packet makes between two distinct uniform-random nodes. It is the
// load-independent part of the latency model and the anchor for
// extrapolating to uncalibrated topologies.
func (r Regime) MeanLinks() (float64, error) {
	switch r.Topology {
	case "mesh":
		w, h := float64(r.A), float64(r.B)
		n := w * h
		if n < 2 {
			return 0, fmt.Errorf("twin: mesh %dx%d has no traffic pairs", r.A, r.B)
		}
		// E|dx| over independent uniform coordinates is (w^2-1)/(3w); the
		// n/(n-1) factor conditions on dst != src (the uniform pattern
		// never self-sends). Router visits are |dx|+|dy|+1, links one more.
		ex := (w*w - 1) / (3 * w)
		ey := (h*h - 1) / (3 * h)
		return (ex+ey)*n/(n-1) + 2, nil
	case "fattree":
		if r.A < 2 || r.B < 1 {
			return 0, fmt.Errorf("twin: fat tree k=%d levels=%d", r.A, r.B)
		}
		nodes, _ := r.Nodes()
		if nodes < 2 {
			return 0, fmt.Errorf("twin: fat tree k=%d levels=%d has no traffic pairs", r.A, r.B)
		}
		// A pair whose lowest common subtree sits at level l visits 2l-1
		// routers (l up, l-1 back down); the number of peers sharing a
		// level-l subtree but not a level-(l-1) one is k^l - k^(l-1).
		mean := 0.0
		kl := 1
		for l := 1; l <= r.B; l++ {
			prev := kl
			kl *= r.A
			p := float64(kl-prev) / float64(nodes-1)
			mean += p * float64(2*l-1)
		}
		return mean + 1, nil
	}
	return 0, fmt.Errorf("twin: unknown topology %q", r.Topology)
}

// WormFlits returns the flit count of one injected packet in this regime:
// head + payload + tail, with CR padding the payload to the full hardware
// packet so the tail doubles as the end-to-end acknowledgement.
func (r Regime) WormFlits(payloadWords, packetWords int) int {
	if r.Mode == flitnet.CR && payloadWords < packetWords {
		payloadWords = packetWords
	}
	return payloadWords + 2
}

// NetPoint is one flit-network operating point to predict.
type NetPoint struct {
	Regime
	// Load is the offered load in packets/node/cycle (0 < Load <= 1).
	Load float64
	// Cycles is the measurement length the count predictions scale to.
	Cycles int
}

// NetPrediction is the twin's closed-form estimate of one operating point,
// mirroring what cmd/netload measures.
type NetPrediction struct {
	// MeanLatency is the predicted mean packet latency in cycles.
	MeanLatency float64 `json:"mean_latency_cycles"`
	// BaseLatency is the zero-load latency the regime's curve extrapolates
	// to; Contention is MeanLatency/BaseLatency, the paper-style contention
	// factor.
	BaseLatency float64 `json:"base_latency_cycles"`
	Contention  float64 `json:"contention_factor"`
	// Throughput is delivered packets/node/kilocycle (the netload y-axis).
	Throughput float64 `json:"throughput_pkts_per_node_kcycle"`
	// Delivered and FlitMoves are the predicted counts over Cycles.
	Delivered uint64 `json:"delivered"`
	FlitMoves uint64 `json:"flit_moves"`
	// Cycles is the predicted total simulated cycles including the drain
	// after injection stops.
	Cycles uint64 `json:"cycles"`
	// MeanLinks and WormFlits are the structural (uncalibrated) components.
	MeanLinks float64 `json:"mean_links"`
	WormFlits int     `json:"worm_flits"`
	// Calibrated is true when the point hit a committed regime table;
	// false when the prediction fell back to the structural transfer model
	// (same mode, scaled by the topology's mean path length).
	Calibrated bool `json:"calibrated"`
}

// CalKnots is the number of committed knot loads per regime.
const CalKnots = 6

// calKnotLoads are the offered loads the committed tables were measured
// at. They bracket the contention knee (0.1–0.2) tightly, because that is
// where interpolation error concentrates.
var calKnotLoads = [CalKnots]float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3}

// KnotLoads returns the committed knot loads.
func KnotLoads() []float64 { return append([]float64(nil), calKnotLoads[:]...) }

// calibratedRegime is one committed table entry (see tables.go).
type calibratedRegime struct {
	Regime Regime
	// Lat is mean latency (cycles); Thru delivered packets/node/cycle;
	// Moves flit moves/node/cycle; Drain cycles past the measurement until
	// the network went quiet — each at the knot loads.
	Lat, Thru, Moves, Drain [CalKnots]float64
}

// series is a PCHIP-interpolable knot series with precomputed slopes.
type series struct {
	y [CalKnots]float64
	m [CalKnots]float64
}

// regimeCurve is one regime's full set of calibrated curves.
type regimeCurve struct {
	regime                  Regime
	lat, thru, moves, drain series
}

// curves indexes the calibrated tables by regime; curveOrder preserves the
// committed order for deterministic iteration and fallback donor search.
var (
	curves     map[Regime]*regimeCurve
	curveOrder []*regimeCurve
)

func init() {
	curves = make(map[Regime]*regimeCurve, len(calibratedRegimes))
	for i := range calibratedRegimes {
		c := &calibratedRegimes[i]
		rc := &regimeCurve{
			regime: c.Regime,
			lat:    newSeries(c.Lat),
			thru:   newSeries(c.Thru),
			moves:  newSeries(c.Moves),
			drain:  newSeries(c.Drain),
		}
		curves[c.Regime] = rc
		curveOrder = append(curveOrder, rc)
	}
}

// CalibratedRegimes returns the committed regimes in table order.
func CalibratedRegimes() []Regime {
	out := make([]Regime, len(curveOrder))
	for i, c := range curveOrder {
		out[i] = c.regime
	}
	return out
}

// newSeries precomputes the Fritsch–Carlson monotone cubic Hermite slopes
// for a knot series, so evaluation is allocation-free.
func newSeries(y [CalKnots]float64) series {
	s := series{y: y}
	var h, d [CalKnots - 1]float64
	for i := 0; i < CalKnots-1; i++ {
		h[i] = calKnotLoads[i+1] - calKnotLoads[i]
		d[i] = (y[i+1] - y[i]) / h[i]
	}
	s.m[0] = d[0]
	s.m[CalKnots-1] = d[CalKnots-2]
	for i := 1; i < CalKnots-1; i++ {
		if d[i-1]*d[i] <= 0 {
			// Local extremum: a zero slope keeps the interpolant monotone
			// on both sides instead of overshooting.
			s.m[i] = 0
			continue
		}
		w1 := 2*h[i] + h[i-1]
		w2 := h[i] + 2*h[i-1]
		s.m[i] = (w1 + w2) / (w1/d[i-1] + w2/d[i])
	}
	return s
}

// eval interpolates the series at load x: cubic Hermite between knots,
// linear extrapolation beyond the committed range.
func (s *series) eval(x float64) float64 {
	if x <= calKnotLoads[0] {
		return s.y[0] + s.m[0]*(x-calKnotLoads[0])
	}
	if x >= calKnotLoads[CalKnots-1] {
		return s.y[CalKnots-1] + s.m[CalKnots-1]*(x-calKnotLoads[CalKnots-1])
	}
	i := 0
	for x > calKnotLoads[i+1] {
		i++
	}
	h := calKnotLoads[i+1] - calKnotLoads[i]
	t := (x - calKnotLoads[i]) / h
	u := 1 - t
	h00 := (1 + 2*t) * u * u
	h10 := t * u * u
	h01 := t * t * (3 - 2*t)
	h11 := t * t * (t - 1)
	return h00*s.y[i] + h10*h*s.m[i] + h01*s.y[i+1] + h11*h*s.m[i+1]
}

// base extrapolates the series to zero load along the first knot's slope.
func (s *series) base() float64 {
	return s.y[0] - s.m[0]*calKnotLoads[0]
}

// PredictNet evaluates the twin at one operating point. Points on a
// committed regime use that regime's calibrated curves; other topologies
// and shapes fall back to the structural transfer model (the same-mode
// calibrated curve rescaled by the topologies' mean path lengths), flagged
// with Calibrated=false. Evaluation allocates nothing.
func (pt NetPoint) PredictNet() (NetPrediction, error) {
	if !(pt.Load > 0 && pt.Load <= 1) { // written to reject NaN too
		return NetPrediction{}, fmt.Errorf("twin: load %g out of (0, 1]", pt.Load)
	}
	if pt.Cycles < 1 {
		return NetPrediction{}, fmt.Errorf("twin: %d measurement cycles", pt.Cycles)
	}
	nodes, err := pt.Nodes()
	if err != nil {
		return NetPrediction{}, err
	}
	links, err := pt.MeanLinks()
	if err != nil {
		return NetPrediction{}, err
	}
	p := NetPrediction{
		MeanLinks: links,
		WormFlits: pt.WormFlits(1, 4), // netload injects 1-word packets, 4-word hardware packets
	}
	if rc, ok := curves[pt.Regime]; ok {
		p.Calibrated = true
		p.MeanLatency = rc.lat.eval(pt.Load)
		p.BaseLatency = rc.lat.base()
		p.Throughput = rc.thru.eval(pt.Load) * 1000
		p.Delivered = round(rc.thru.eval(pt.Load) * float64(nodes) * float64(pt.Cycles))
		p.FlitMoves = round(rc.moves.eval(pt.Load) * float64(nodes) * float64(pt.Cycles))
		p.Cycles = uint64(pt.Cycles) + round(rc.drain.eval(pt.Load))
	} else {
		donor := donorFor(pt.Mode)
		if donor == nil {
			return NetPrediction{}, fmt.Errorf("twin: no calibrated regime for mode %s", pt.Mode)
		}
		// Structural transfer: latency scales with the ratio of structural
		// zero-load latencies (mean links + serialization), flit moves with
		// the mean-links ratio, throughput and drain carry over as per-node
		// rates. A rough model, and marked as such.
		donorLinks, err := donor.regime.MeanLinks()
		if err != nil {
			return NetPrediction{}, err
		}
		flits := float64(p.WormFlits)
		structural := links + flits - 1
		donorStructural := donorLinks + flits - 1
		scale := structural / donorStructural
		p.MeanLatency = donor.lat.eval(pt.Load) * scale
		p.BaseLatency = donor.lat.base() * scale
		p.Throughput = donor.thru.eval(pt.Load) * 1000
		p.Delivered = round(donor.thru.eval(pt.Load) * float64(nodes) * float64(pt.Cycles))
		p.FlitMoves = round(donor.moves.eval(pt.Load) * (links / donorLinks) * float64(nodes) * float64(pt.Cycles))
		p.Cycles = uint64(pt.Cycles) + round(donor.drain.eval(pt.Load)*scale)
	}
	if p.BaseLatency > 0 {
		p.Contention = p.MeanLatency / p.BaseLatency
	}
	return p, nil
}

// donorFor picks the fallback donor regime for an uncalibrated point: the
// first committed regime with the same routing mode, in table order.
func donorFor(mode flitnet.Mode) *regimeCurve {
	for _, c := range curveOrder {
		if c.regime.Mode == mode {
			return c
		}
	}
	return nil
}

// round converts a non-negative model value to the nearest count.
func round(x float64) uint64 {
	if x <= 0 {
		return 0
	}
	return uint64(math.Floor(x + 0.5))
}
