// Package critpath reconstructs per-message causal span trees from the
// observability layer's trace (internal/obs) and attributes every unit of
// each message's delivery time to a segment: protocol work on a node
// (further split by the paper's Feature axes), queueing/transit between
// nodes, backpressure stalls, and retransmission/recovery waits.
//
// The decomposition is exact by construction: a message's segments
// telescope — each segment runs from the previous event's time to the next
// event's — so they sum to the message's total latency with no residue.
// That exactness extends to the aggregate level: Reconcile cross-checks the
// per-message event attribution against the metrics registry's counters and
// demands exact equality, so the report provably accounts for everything
// the run recorded.
//
// A critical-path pass chains events across concurrent messages: an event's
// predecessor is the later of the previous event of its own message and the
// previous event on its node, so the backward chain from the run's last
// event is the sequence of happenings that actually gated completion.
package critpath

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"msglayer/internal/obs"
)

// Category classifies what a message was doing (or waiting for) during one
// segment of its lifetime.
type Category uint8

// Categories, in report order.
const (
	// CatWork is protocol execution on a node: handler dispatch, send
	// staging, segment bookkeeping — time the messaging layer is actively
	// spending instructions on the message.
	CatWork Category = iota
	// CatQueueing is time between nodes: network transit plus waiting for
	// the destination's scheduler slot or inject-queue turn.
	CatQueueing
	// CatBackpressure is time stalled behind exhausted buffering.
	CatBackpressure
	// CatRetransmission is recovery time: retries, kills, backoff,
	// duplicate handling — the fault-tolerance wait states.
	CatRetransmission

	numCategories = 4
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatWork:
		return "work"
	case CatQueueing:
		return "queueing"
	case CatBackpressure:
		return "backpressure"
	case CatRetransmission:
		return "retransmission"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Role is which end of the transfer a segment executed on.
type Role uint8

// Roles, in report order.
const (
	// RoleSource is the message's originating node.
	RoleSource Role = iota
	// RoleDest is any other node (the receiver side of the transfer).
	RoleDest
	// RoleNetwork is the substrate itself (events with Node == -1).
	RoleNetwork

	numRoles = 3
)

// String names the role.
func (r Role) String() string {
	switch r {
	case RoleSource:
		return "source"
	case RoleDest:
		return "dest"
	case RoleNetwork:
		return "network"
	default:
		return fmt.Sprintf("Role(%d)", int(r))
	}
}

// numAxes covers obs.AxisOther..obs.AxisFaultTol.
const numAxes = 5

// Segment is one exactly-accounted slice of a message's lifetime: the time
// from the previous event to the event named here, classified by what that
// arrival represents.
type Segment struct {
	// From and To bound the segment in trace time units; To-From is its
	// length (possibly zero for coincident events).
	From, To uint64
	// Name is the event that closes the segment.
	Name string
	// Node is the closing event's node (-1 for network-level events).
	Node int
	// Proto is the closing event's protocol/subsystem.
	Proto string
	// Axis is the closing event's Feature-axis attribution.
	Axis obs.Axis
	// Cat classifies the segment.
	Cat Category
	// Role is the end of the transfer the segment executed on.
	Role Role
}

// Message is the reconstructed lifetime of one causal message.
type Message struct {
	// ID is the message identity (hub-allocated, or synthetic for raw
	// flit-level workloads — see Synthetic).
	ID uint64
	// Synthetic marks identities manufactured by the flit simulator for
	// packets no messaging layer traced.
	Synthetic bool
	// Proto is the protocol of the message's first event.
	Proto string
	// SrcNode is the originating node (-1 when the message only ever
	// appeared at network level). DstNode is the first other node seen.
	SrcNode, DstNode int
	// Start and End bound the message in trace time units; Latency is
	// End-Start and exactly equals the sum of Segments.
	Start, End, Latency uint64
	// Events counts instant events, Spans completed span events, Packets
	// distinct packet identities.
	Events, Spans, Packets int
	// Retries counts retransmission-category closing events.
	Retries int
	// Segments is the exact telescoping decomposition of Latency.
	Segments []Segment
	// ByCategory, ByRole, and ByAxis aggregate segment time. ByAxis covers
	// CatWork segments only, indexed by obs.Axis.
	ByCategory [numCategories]uint64
	ByRole     [numRoles]uint64
	ByAxis     [numAxes]uint64
}

// PathStep is one hop of the cross-message critical path.
type PathStep struct {
	// Name, Node, MsgID, and Time identify the event.
	Name  string
	Node  int
	MsgID uint64
	Time  uint64
	// Gap is the time since the predecessor step; Cat classifies it.
	Gap uint64
	Cat Category
}

// CriticalPath is the backward chain from the run's last event through the
// predecessors that gated it.
type CriticalPath struct {
	// Steps in time order (earliest first).
	Steps []PathStep
	// Span is the time covered, ByCategory its composition.
	Span       uint64
	ByCategory [numCategories]uint64
}

// Analysis is the full per-message reconstruction of one trace.
type Analysis struct {
	// Messages in origination order (ascending first-event sequence).
	Messages []*Message
	// Unattributed counts events with no message identity.
	Unattributed int
	// TotalEvents is every trace event examined (instants and spans).
	TotalEvents int
	// ByCategory, ByRole, ByAxis aggregate segment time across messages.
	ByCategory [numCategories]uint64
	ByRole     [numRoles]uint64
	ByAxis     [numAxes]uint64
	// Waterfall is work time by role, protocol, and Feature axis, in
	// deterministic (role, proto, axis) order.
	Waterfall []WaterfallRow
	// Latencies holds every message latency, ascending (exact quantiles).
	Latencies []uint64
	// Critical is the cross-message critical path.
	Critical CriticalPath
}

// WaterfallRow is one line of the per-feature cost waterfall.
type WaterfallRow struct {
	Role  Role
	Proto string
	Axis  obs.Axis
	Units uint64
}

// eventTime is the moment an event "happens" on the message timeline: an
// instant's timestamp, a span's close (spans are recorded when they end, so
// this keeps emission order time-ordered).
func eventTime(e *obs.TraceEvent) uint64 {
	if e.Phase == obs.PhaseComplete {
		return e.TS + e.Dur
	}
	return e.TS
}

// retransMarks are the substrings naming recovery events.
var retransMarks = []string{
	"retry", "retransmit", "kill", "timeout", "nack",
	"stale", "reack", "rereply", "failed", "duplicate", "backoff",
}

// nameClass is what an event name alone says about the gap the event
// closes; category combines it with the same-node rule.
type nameClass uint8

const (
	// nameWork closes a work gap on the same node, a queueing gap across
	// nodes.
	nameWork nameClass = iota
	// nameQueue always closes a queueing gap (flit-level wait spans).
	nameQueue
	nameBackpressure
	nameRetrans
)

// classOf classifies an event name by substring search.
func classOf(name string) nameClass {
	if strings.Contains(name, "backpressure") {
		return nameBackpressure
	}
	for _, m := range retransMarks {
		if strings.Contains(name, m) {
			return nameRetrans
		}
	}
	if name == "flit.wait.queue" || name == "flit.wait.blocked" {
		return nameQueue
	}
	return nameWork
}

// category attributes the gap closed by an event of this class: what was
// the message doing since the previous event? sameNode reports whether the
// event happened where the previous one did.
func (c nameClass) category(sameNode bool) Category {
	switch {
	case c == nameBackpressure:
		return CatBackpressure
	case c == nameRetrans:
		return CatRetransmission
	case c == nameQueue || !sameNode:
		return CatQueueing
	}
	return CatWork
}

// ClassifyName attributes an event name alone, without gap context: the
// category its name implies when the preceding event happened on the same
// node. The timeline's per-window breakdowns use it on counter deltas,
// where no per-message gap reconstruction is possible.
func ClassifyName(name string) Category { return classOf(name).category(true) }

// Analyze reconstructs per-message timelines from a recorded trace. The
// slice must be in emission order (obs.Tracer.Events returns it that way).
//
// It runs in dense linear passes: the first gives every event a message
// index (one id lookup per event) and a name class (the substring search
// runs once per distinct name), and counts events per message; the events
// are then grouped by message, and each message's segments are cut from
// one slab sized by the count, walking its events in emission order.
func Analyze(events []obs.TraceEvent) *Analysis {
	a := &Analysis{TotalEvents: len(events)}
	msgOf := make([]int32, len(events)) // event -> message index, -1 if none
	class := make([]nameClass, len(events))
	index := make(map[uint64]int32)
	names := make(map[string]nameClass)
	var count []int32
	for i := range events {
		e := &events[i]
		c, ok := names[e.Name]
		if !ok {
			c = classOf(e.Name)
			names[e.Name] = c
		}
		class[i] = c
		id := e.MsgID
		if id == 0 {
			a.Unattributed++
			msgOf[i] = -1
			continue
		}
		mi, ok := index[id]
		if !ok {
			mi = int32(len(count))
			index[id] = mi
			count = append(count, 0)
		}
		count[mi]++
		msgOf[i] = mi
	}
	n := len(count)
	if n > 0 {
		a.Messages, a.Latencies, a.Waterfall = messages(events, msgOf, class, count)
		for _, m := range a.Messages {
			for c := 0; c < numCategories; c++ {
				a.ByCategory[c] += m.ByCategory[c]
			}
			for r := 0; r < numRoles; r++ {
				a.ByRole[r] += m.ByRole[r]
			}
			for x := 0; x < numAxes; x++ {
				a.ByAxis[x] += m.ByAxis[x]
			}
		}
	}
	a.Critical = criticalPath(events, msgOf, class, n)
	return a
}

// messages reconstructs the n = len(count) messages msgOf assigns events
// to, returning them in origination order with the ascending latencies and
// the sorted work waterfall. class is each event's name class; count is
// consumed as scratch.
func messages(events []obs.TraceEvent, msgOf []int32, class []nameClass, count []int32) ([]*Message, []uint64, []WaterfallRow) {
	n := len(count)
	// Group event indices by message (a counting sort, stable in emission
	// order): message mi's events are order[off[mi]:off[mi+1]].
	off := make([]int32, n+1)
	for mi, c := range count {
		off[mi+1] = off[mi] + c
	}
	order := make([]int32, off[n])
	fill := count
	copy(fill, off[:n])
	for i, mi := range msgOf {
		if mi >= 0 {
			order[fill[mi]] = int32(i)
			fill[mi]++
		}
	}

	slab := make([]Message, n)
	segs := make([]Segment, len(order))
	msgs := make([]*Message, n)
	lat := make([]uint64, n)
	water := make(map[WaterfallRow]uint64)
	var pkts []uint64
	for mi := range slab {
		m := &slab[mi]
		msgs[mi] = m
		evs := order[off[mi]:off[mi+1]]
		first := &events[evs[0]]
		cursor, lastNode := eventTime(first), first.Node
		*m = Message{
			ID:        first.MsgID,
			Synthetic: first.MsgID >= syntheticBase,
			Proto:     first.Proto,
			SrcNode:   first.Node,
			DstNode:   first.Node,
			Start:     cursor,
			Segments:  segs[off[mi]:off[mi+1]:off[mi+1]],
		}
		pkts = pkts[:0]
		for k, ei := range evs {
			e := &events[ei]
			if m.DstNode == m.SrcNode && e.Node != m.SrcNode && e.Node >= 0 {
				m.DstNode = e.Node
			}
			// The first record is often the mechanism layer (a cmam.send span
			// closes before the protocol's own start event lands); name the
			// message after the protocol driving it once a node-level protocol
			// event shows up (network substrate and flit events don't qualify).
			if m.Proto == "cmam" && e.Node >= 0 && e.Proto != "cmam" && e.Proto != "" &&
				!strings.HasPrefix(e.Name, "net.") {
				m.Proto = e.Proto
			}
			if e.Phase == obs.PhaseComplete {
				m.Spans++
			} else {
				m.Events++
			}
			if e.PktID != 0 {
				pkts = append(pkts, e.PktID)
			}
			to := eventTime(e)
			if to < cursor {
				to = cursor // clamped: span starts can precede the cursor
			}
			role := roleOf(e.Node, m.SrcNode)
			cat := class[ei].category(e.Node == lastNode)
			m.Segments[k] = Segment{
				From: cursor, To: to,
				Name: e.Name, Node: e.Node, Proto: e.Proto, Axis: e.Axis,
				Cat: cat, Role: role,
			}
			units := to - cursor
			m.ByCategory[cat] += units
			m.ByRole[role] += units
			if cat == CatWork {
				m.ByAxis[e.Axis] += units
				if units > 0 {
					water[WaterfallRow{Role: role, Proto: e.Proto, Axis: e.Axis}] += units
				}
			}
			if cat == CatRetransmission && e.Phase != obs.PhaseComplete {
				m.Retries++
			}
			cursor, lastNode = to, e.Node
		}
		m.End = cursor
		m.Latency = m.End - m.Start
		m.Packets = distinct(pkts)
		lat[mi] = m.Latency
	}

	slices.SortFunc(msgs, func(x, y *Message) int {
		if c := cmp.Compare(x.Start, y.Start); c != 0 {
			return c
		}
		return cmp.Compare(x.ID, y.ID)
	})
	slices.Sort(lat)
	var rows []WaterfallRow
	if len(water) > 0 {
		rows = make([]WaterfallRow, 0, len(water))
		for k, v := range water {
			k.Units = v
			rows = append(rows, k)
		}
		slices.SortFunc(rows, func(x, y WaterfallRow) int {
			if x.Role != y.Role {
				return cmp.Compare(x.Role, y.Role)
			}
			if x.Proto != y.Proto {
				return strings.Compare(x.Proto, y.Proto)
			}
			return cmp.Compare(x.Axis, y.Axis)
		})
	}
	return msgs, lat, rows
}

// distinct counts the distinct values in ids, reordering it.
func distinct(ids []uint64) int {
	if len(ids) < 2 {
		return len(ids)
	}
	slices.Sort(ids)
	d := 1
	for i := 1; i < len(ids); i++ {
		if ids[i] != ids[i-1] {
			d++
		}
	}
	return d
}

// syntheticBase mirrors the flit simulator's synthetic message-id offset.
const syntheticBase = uint64(1) << 32

// roleOf maps a node to its role relative to a message's source.
func roleOf(node, src int) Role {
	switch {
	case node < 0:
		return RoleNetwork
	case node == src:
		return RoleSource
	default:
		return RoleDest
	}
}

// Quantile returns the exact q-quantile of the message latencies (nearest-
// rank, so it is an observed value, not an interpolation). Zero when no
// messages were reconstructed.
func (a *Analysis) Quantile(q float64) uint64 {
	n := len(a.Latencies)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return a.Latencies[0]
	}
	rank := int(float64(n) * q)
	if float64(rank) < float64(n)*q {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return a.Latencies[rank-1]
}

// MeanLatency returns the average message latency in trace units.
func (a *Analysis) MeanLatency() float64 {
	if len(a.Latencies) == 0 {
		return 0
	}
	var sum uint64
	for _, l := range a.Latencies {
		sum += l
	}
	return float64(sum) / float64(len(a.Latencies))
}

// denseNodes bounds the node values criticalPath tracks in a slice
// (indexed by node+1, so the network's -1 fits); others use a map.
const denseNodes = 1 << 16

// criticalPath chains events across messages: an event's predecessor is the
// later of the previous event of its message and the previous event on its
// node, and the path is the backward chain from the run's last event. One
// forward pass records predecessor indices; the backtrack is O(path).
// msgOf is Analyze's event -> message index (-1 for none) over n messages,
// class its event -> name class.
func criticalPath(events []obs.TraceEvent, msgOf []int32, class []nameClass, n int) CriticalPath {
	var cp CriticalPath
	if len(events) == 0 {
		return cp
	}
	pred := make([]int32, len(events))
	lastOfMsg := make([]int32, n)
	for i := range lastOfMsg {
		lastOfMsg[i] = -1
	}
	var lastOnNode []int32
	var farNodes map[int]int32
	for i := range events {
		p := int32(-1)
		if mi := msgOf[i]; mi >= 0 {
			p = lastOfMsg[mi]
			lastOfMsg[mi] = int32(i)
		}
		node := events[i].Node
		if slot := node + 1; slot >= 0 && slot < denseNodes {
			for slot >= len(lastOnNode) {
				lastOnNode = append(lastOnNode, -1)
			}
			if j := lastOnNode[slot]; j > p {
				p = j
			}
			lastOnNode[slot] = int32(i)
		} else {
			if j, ok := farNodes[node]; ok && j > p {
				p = j
			}
			if farNodes == nil {
				farNodes = make(map[int]int32)
			}
			farNodes[node] = int32(i)
		}
		pred[i] = p
	}
	steps := 0
	for i := int32(len(events) - 1); i >= 0; i = pred[i] {
		steps++
	}
	// The chain in time order: chain[steps-1] is the run's last event.
	chain := make([]int32, steps)
	k := steps
	for i := int32(len(events) - 1); i >= 0; i = pred[i] {
		k--
		chain[k] = i
	}
	cp.Steps = make([]PathStep, steps)
	var prevTime uint64
	var prevNode int
	for k, ei := range chain {
		e := &events[ei]
		t := eventTime(e)
		if t < prevTime {
			t = prevTime
		}
		step := PathStep{Name: e.Name, Node: e.Node, MsgID: e.MsgID, Time: t}
		if k > 0 {
			step.Gap = t - prevTime
			step.Cat = class[ei].category(e.Node == prevNode)
			cp.ByCategory[step.Cat] += step.Gap
		}
		cp.Steps[k] = step
		prevTime, prevNode = t, e.Node
	}
	if steps > 1 {
		cp.Span = cp.Steps[steps-1].Time - cp.Steps[0].Time
	}
	return cp
}
