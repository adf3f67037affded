// Package analytic provides the closed-form generalization of the paper's
// cost model (Figure 8): end-to-end messaging cost as a function of the
// hardware packet payload size n, the packet count p, the fraction of
// packets arriving out of order, and the acknowledgement group size.
//
// The model is evaluated over the same calibration schedule the simulator
// charges, so the two agree exactly wherever the protocol's event counts
// match the model's assumptions; the experiments cross-validate this.
package analytic

import (
	"fmt"
	"math"

	"msglayer/internal/cost"
)

// Params describe one modeled transfer.
type Params struct {
	// MessageWords is the total data volume transmitted.
	MessageWords int
	// OutOfOrder is the number of packets arriving out of transmission
	// order (each is buffered at the receiver and later drained). The
	// paper's Table 2 assumes half.
	OutOfOrder int
	// AckGroup is the group-acknowledgement size g (>= 1); the paper's
	// tables use 1.
	AckGroup int
}

// Breakdown is a role × feature cost table, the shape of Table 2.
type Breakdown map[cost.Role]map[cost.Feature]cost.Vec

// Packets returns p, the number of hardware packets a message needs.
func Packets(s *cost.Schedule, messageWords int) int {
	n := s.PacketWords
	if messageWords > 0 {
		return (messageWords-1)/n + 1 // (words+n-1)/n would overflow near MaxInt
	}
	return (messageWords + n - 1) / n
}

// HalfOutOfOrder returns the paper's Table 2 assumption for a message:
// half the packets (rounded down) arrive out of order.
func HalfOutOfOrder(s *cost.Schedule, messageWords int) int {
	return Packets(s, messageWords) / 2
}

func (p Params) validate(s *cost.Schedule) (packets uint64, ooo uint64, g uint64, err error) {
	if p.MessageWords <= 0 {
		return 0, 0, 0, fmt.Errorf("analytic: message of %d words", p.MessageWords)
	}
	pk := Packets(s, p.MessageWords)
	// Every model charges each bundle at most once per packet, or once per
	// transfer, so its total stays below (packets+1) × ChargeBound.
	if bound := s.ChargeBound(); bound > 0 && uint64(pk) >= math.MaxUint64/bound {
		return 0, 0, 0, fmt.Errorf("analytic: a %d-word message overflows the instruction count", p.MessageWords)
	}
	if p.OutOfOrder < 0 || p.OutOfOrder > pk {
		return 0, 0, 0, fmt.Errorf("analytic: %d out-of-order packets of %d", p.OutOfOrder, pk)
	}
	if p.AckGroup == 0 {
		p.AckGroup = 1
	}
	if p.AckGroup < 0 {
		return 0, 0, 0, fmt.Errorf("analytic: acknowledgement group %d", p.AckGroup)
	}
	return uint64(pk), uint64(p.OutOfOrder), uint64(p.AckGroup), nil
}

// SingleCMAM returns the Table 1 breakdown: one packet, base cost only.
func SingleCMAM(s *cost.Schedule) Breakdown {
	return Breakdown{
		cost.Source:      {cost.Base: s.SendSingle.Vec()},
		cost.Destination: {cost.Base: s.RecvSingle.Vec()},
	}
}

// FiniteCMAM models the finite-sequence multi-packet protocol on the CM-5
// substrate: fixed and per-packet base costs, the fixed buffer-management
// handshake, per-packet offset bookkeeping, and one acknowledgement.
// Arrival order does not matter (carried offsets), so OutOfOrder is
// ignored, as is AckGroup (there is exactly one acknowledgement).
func FiniteCMAM(s *cost.Schedule, prm Params) (Breakdown, error) {
	p, _, _, err := prm.validate(s)
	if err != nil {
		return nil, err
	}
	bufSrc := s.AllocRequestSend.Vec().Add(s.AllocReplyRecv.Vec())
	bufDst := s.AllocRequestRecv.Vec().
		Add(s.SegmentAllocate.Vec()).
		Add(s.AllocReplySend.Vec()).
		Add(s.SegmentDeallocate.Vec())
	return Breakdown{
		cost.Source: {
			cost.Base:       s.XferSendFixed.Vec().Add(s.XferSendPacket.Vec().Scale(p)),
			cost.BufferMgmt: bufSrc,
			cost.InOrder:    s.OffsetPerPacket.Vec().Scale(p),
			cost.FaultTol:   s.XferAckRecv.Vec(),
		},
		cost.Destination: {
			cost.Base:       s.XferRecvFixed.Vec().Add(s.XferRecvPacket.Vec().Scale(p)),
			cost.BufferMgmt: bufDst,
			cost.InOrder:    s.OffsetTrackFixed.Vec().Add(s.OffsetTrackPacket.Vec().Scale(p)),
			cost.FaultTol:   s.XferAckSend.Vec(),
		},
	}, nil
}

// IndefiniteCMAM models the indefinite-sequence protocol on the CM-5
// substrate: per-packet base costs, sequence numbers and reorder buffering
// for in-order delivery, and source buffering plus (grouped)
// acknowledgements for fault tolerance.
func IndefiniteCMAM(s *cost.Schedule, prm Params) (Breakdown, error) {
	p, ooo, g, err := prm.validate(s)
	if err != nil {
		return nil, err
	}
	acks := p / g // the tail short group is acknowledged with the next data
	inOrderArrivals := p - ooo
	return Breakdown{
		cost.Source: {
			cost.Base:    s.StreamSendPacket.Vec().Scale(p),
			cost.InOrder: s.SeqPerPacket.Vec().Scale(p),
			cost.FaultTol: s.SourceBufferPacket.Vec().Scale(p).
				Add(s.StreamAckRecv.Vec().Scale(acks)),
		},
		cost.Destination: {
			cost.Base: s.StreamRecvFixed.Vec().Add(s.StreamRecvPacket.Vec().Scale(p)),
			cost.InOrder: s.InOrderArrival.Vec().Scale(inOrderArrivals).
				Add(s.OutOfOrderArrival.Vec().Scale(ooo)).
				Add(s.DrainBuffered.Vec().Scale(ooo)),
			cost.FaultTol: s.StreamAckSend.Vec().Scale(acks),
		},
	}, nil
}

// FiniteCR models the finite-sequence protocol on the Compressionless-
// Routing substrate (Figure 5): base costs plus a pointer store.
func FiniteCR(s *cost.Schedule, prm Params) (Breakdown, error) {
	p, _, _, err := prm.validate(s)
	if err != nil {
		return nil, err
	}
	return Breakdown{
		cost.Source: {
			cost.Base: s.CRXferSendFixed.Vec().Add(s.CRXferSendPacket.Vec().Scale(p)),
		},
		cost.Destination: {
			cost.Base: s.CRXferRecvFixed.Vec().
				Add(s.CRXferRecvPacket.Vec().Scale(p)).
				Add(s.CRLastPacket.Vec()),
			cost.BufferMgmt: s.CRBufferRegister.Vec(),
		},
	}, nil
}

// IndefiniteCR models the indefinite-sequence protocol on the CR substrate
// (Figure 7): bare packet transmissions.
func IndefiniteCR(s *cost.Schedule, prm Params) (Breakdown, error) {
	p, _, _, err := prm.validate(s)
	if err != nil {
		return nil, err
	}
	return Breakdown{
		cost.Source: {
			cost.Base: s.CRStreamSend.Vec().Scale(p),
		},
		cost.Destination: {
			cost.Base: s.CRStreamRecvFixed.Vec().Add(s.CRStreamRecv.Vec().Scale(p)),
		},
	}, nil
}

// RoleTotal sums a breakdown column.
func (b Breakdown) RoleTotal(r cost.Role) cost.Vec {
	var v cost.Vec
	for _, cell := range b[r] {
		v = v.Add(cell)
	}
	return v
}

// FeatureTotal sums a breakdown row across roles.
func (b Breakdown) FeatureTotal(f cost.Feature) cost.Vec {
	var v cost.Vec
	for _, features := range b {
		v = v.Add(features[f])
	}
	return v
}

// Total sums the whole breakdown.
func (b Breakdown) Total() cost.Vec {
	return b.RoleTotal(cost.Source).Add(b.RoleTotal(cost.Destination))
}

// Overhead returns the messaging-layer overhead fraction — everything that
// is not base cost, as a fraction of the total — the y-axis of Figure 8's
// right-hand plot.
func (b Breakdown) Overhead() float64 {
	total := b.Total().Total()
	if total == 0 {
		return 0
	}
	base := b.FeatureTotal(cost.Base).Total()
	return 1 - float64(base)/float64(total)
}

// WeightedOverhead is Overhead under a cycle-cost model (Appendix A).
func (b Breakdown) WeightedOverhead(m cost.Model) float64 {
	total := m.Cost(b.Total())
	if total == 0 {
		return 0
	}
	base := m.Cost(b.FeatureTotal(cost.Base))
	return 1 - float64(base)/float64(total)
}

// SweepPoint is one x/y pair of Figure 8's right-hand plot.
type SweepPoint struct {
	PacketWords int
	Packets     int
	Total       uint64
	Overhead    float64
}

// Protocol selects a modeled protocol for sweeps.
type Protocol int

// Protocols available to OverheadSweep.
const (
	ProtoFiniteCMAM Protocol = iota
	ProtoIndefiniteCMAM
	ProtoFiniteCR
	ProtoIndefiniteCR
)

// String names the protocol as in the paper's legends.
func (p Protocol) String() string {
	switch p {
	case ProtoFiniteCMAM:
		return "finite (CMAM)"
	case ProtoIndefiniteCMAM:
		return "indefinite (CMAM)"
	case ProtoFiniteCR:
		return "finite (CR)"
	case ProtoIndefiniteCR:
		return "indefinite (CR)"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Evaluate models the protocol under the schedule and parameters.
func Evaluate(proto Protocol, s *cost.Schedule, prm Params) (Breakdown, error) {
	switch proto {
	case ProtoFiniteCMAM:
		return FiniteCMAM(s, prm)
	case ProtoIndefiniteCMAM:
		return IndefiniteCMAM(s, prm)
	case ProtoFiniteCR:
		return FiniteCR(s, prm)
	case ProtoIndefiniteCR:
		return IndefiniteCR(s, prm)
	default:
		return nil, fmt.Errorf("analytic: unknown protocol %d", proto)
	}
}

// OverheadSweep reproduces Figure 8 (right): the messaging overhead for a
// fixed message size as the hardware packet payload varies, keeping the
// paper's half-out-of-order assumption. The schedule for each point is the
// paper calibration regenerated at that packet size.
func OverheadSweep(proto Protocol, messageWords int, packetSizes []int) ([]SweepPoint, error) {
	points := make([]SweepPoint, 0, len(packetSizes))
	for _, n := range packetSizes {
		s, err := cost.NewPaperSchedule(n)
		if err != nil {
			return nil, err
		}
		prm := Params{
			MessageWords: messageWords,
			OutOfOrder:   HalfOutOfOrder(s, messageWords),
			AckGroup:     1,
		}
		b, err := Evaluate(proto, s, prm)
		if err != nil {
			return nil, err
		}
		points = append(points, SweepPoint{
			PacketWords: n,
			Packets:     Packets(s, messageWords),
			Total:       b.Total().Total(),
			Overhead:    b.Overhead(),
		})
	}
	return points, nil
}

// Formula renders the Figure 8 (left) generalized symbolic breakdown for a
// protocol: per-cell cost as fixed + p·(per-packet) vectors in terms of n.
// It is exact for the paper schedule at any even n because the schedule's
// data-movement terms scale as n/2 with all other coefficients constant.
func Formula(proto Protocol, s *cost.Schedule) (string, error) {
	prmOne := Params{MessageWords: s.PacketWords, OutOfOrder: 0, AckGroup: 1}
	one, err := Evaluate(proto, s, prmOne)
	if err != nil {
		return "", err
	}
	prmTwo := Params{MessageWords: 2 * s.PacketWords, OutOfOrder: 0, AckGroup: 1}
	two, err := Evaluate(proto, s, prmTwo)
	if err != nil {
		return "", err
	}
	out := fmt.Sprintf("%s, packet payload n=%d words, p packets:\n", proto, s.PacketWords)
	for _, r := range cost.Roles() {
		for _, f := range cost.Features() {
			a, b := one[r][f], two[r][f]
			per := b.Sub(a) // per-packet vector
			fixed := a.Sub(per)
			if fixed.IsZero() && per.IsZero() {
				continue
			}
			out += fmt.Sprintf("  %-12s %-14s %v + p*%v\n", r, f, fixed, per)
		}
	}
	return out, nil
}

// CrossoverWords finds the smallest message size (in words, stepping one
// packet at a time) at which protocol a becomes at least as cheap as
// protocol b under the schedule and the paper's half-out-of-order
// assumption, searching up to maxWords. It answers the "where do the
// crossovers fall" question for protocol selection: very small messages
// favor the handshake-free indefinite protocol, and the finite protocol's
// per-transfer costs amortize quickly.
func CrossoverWords(a, b Protocol, s *cost.Schedule, maxWords int) (int, bool) {
	n := s.PacketWords
	for words := n; words <= maxWords; words += n {
		prm := Params{
			MessageWords: words,
			OutOfOrder:   HalfOutOfOrder(s, words),
			AckGroup:     1,
		}
		ba, err := Evaluate(a, s, prm)
		if err != nil {
			return 0, false
		}
		bb, err := Evaluate(b, s, prm)
		if err != nil {
			return 0, false
		}
		if ba.Total().Total() <= bb.Total().Total() {
			return words, true
		}
	}
	return 0, false
}
