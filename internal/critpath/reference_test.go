package critpath

import (
	"sort"
	"strings"

	"msglayer/internal/obs"
)

// This file keeps the original map-based reconstruction as the test oracle
// for Analyze: the production pass must match it field for field and byte
// for byte on every rendered form.

// referenceRetransMarks are the substrings naming recovery events.
var referenceRetransMarks = []string{
	"retry", "retransmit", "kill", "timeout", "nack",
	"stale", "reack", "rereply", "failed", "duplicate", "backoff",
}

// referenceClassify attributes the gap closed by event cur: what was the message
// doing since prev? sameNode reports whether cur happened where prev did.
func referenceClassify(name string, sameNode bool) Category {
	if strings.Contains(name, "backpressure") {
		return CatBackpressure
	}
	for _, m := range referenceRetransMarks {
		if strings.Contains(name, m) {
			return CatRetransmission
		}
	}
	if name == "flit.wait.queue" || name == "flit.wait.blocked" || !sameNode {
		return CatQueueing
	}
	return CatWork
}

// referenceAnalyze is the original Analyze: four map[uint64] tables, one
// Message allocation and one append-grown Segments slice per message, and
// name classification by substring search on every event.
func referenceAnalyze(events []obs.TraceEvent) *Analysis {
	a := &Analysis{TotalEvents: len(events)}
	byMsg := make(map[uint64]*Message)
	lastNode := make(map[uint64]int)    // msg -> node of previous event
	lastTime := make(map[uint64]uint64) // msg -> running cursor
	pkts := make(map[uint64]map[uint64]bool)

	for _, e := range events {
		if e.MsgID == 0 {
			a.Unattributed++
			continue
		}
		m, ok := byMsg[e.MsgID]
		t := eventTime(&e)
		if !ok {
			m = &Message{
				ID:        e.MsgID,
				Synthetic: e.MsgID >= syntheticBase,
				Proto:     e.Proto,
				SrcNode:   e.Node,
				DstNode:   e.Node,
				Start:     t,
			}
			byMsg[e.MsgID] = m
			a.Messages = append(a.Messages, m)
			lastNode[e.MsgID] = e.Node
			lastTime[e.MsgID] = t
		}
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
			set := pkts[e.MsgID]
			if set == nil {
				set = make(map[uint64]bool)
				pkts[e.MsgID] = set
			}
			set[e.PktID] = true
		}

		cursor := lastTime[e.MsgID]
		to := t
		if to < cursor {
			to = cursor // clamped: span starts can precede the cursor
		}
		role := roleOf(e.Node, m.SrcNode)
		cat := referenceClassify(e.Name, e.Node == lastNode[e.MsgID])
		seg := Segment{
			From: cursor, To: to,
			Name: e.Name, Node: e.Node, Proto: e.Proto, Axis: e.Axis,
			Cat: cat, Role: role,
		}
		m.Segments = append(m.Segments, seg)
		units := to - cursor
		m.ByCategory[cat] += units
		m.ByRole[role] += units
		if cat == CatWork {
			m.ByAxis[e.Axis] += units
		}
		if cat == CatRetransmission && e.Phase != obs.PhaseComplete {
			m.Retries++
		}
		m.End = to
		m.Latency = m.End - m.Start
		lastTime[e.MsgID] = to
		lastNode[e.MsgID] = e.Node
	}

	sort.Slice(a.Messages, func(i, j int) bool {
		return a.Messages[i].Start < a.Messages[j].Start || (a.Messages[i].Start == a.Messages[j].Start && a.Messages[i].ID < a.Messages[j].ID)
	})
	water := make(map[WaterfallRow]uint64)
	for _, m := range a.Messages {
		m.Packets = len(pkts[m.ID])
		for c := 0; c < numCategories; c++ {
			a.ByCategory[c] += m.ByCategory[c]
		}
		for r := 0; r < numRoles; r++ {
			a.ByRole[r] += m.ByRole[r]
		}
		for x := 0; x < numAxes; x++ {
			a.ByAxis[x] += m.ByAxis[x]
		}
		for _, s := range m.Segments {
			if s.Cat == CatWork && s.To > s.From {
				water[WaterfallRow{Role: s.Role, Proto: s.Proto, Axis: s.Axis}] += s.To - s.From
			}
		}
		a.Latencies = append(a.Latencies, m.Latency)
	}
	for k, v := range water {
		k.Units = v
		a.Waterfall = append(a.Waterfall, k)
	}
	sort.Slice(a.Waterfall, func(i, j int) bool {
		x, y := a.Waterfall[i], a.Waterfall[j]
		if x.Role != y.Role {
			return x.Role < y.Role
		}
		if x.Proto != y.Proto {
			return x.Proto < y.Proto
		}
		return x.Axis < y.Axis
	})
	sort.Slice(a.Latencies, func(i, j int) bool { return a.Latencies[i] < a.Latencies[j] })
	a.Critical = referenceCriticalPath(events)
	return a
}

// referenceCriticalPath chains events across messages: an event's predecessor is the
// later of the previous event of its message and the previous event on its
// node, and the path is the backward chain from the run's last event. One
// forward pass records predecessor indices; the backtrack is O(path).
func referenceCriticalPath(events []obs.TraceEvent) CriticalPath {
	var cp CriticalPath
	if len(events) == 0 {
		return cp
	}
	pred := make([]int32, len(events))
	lastOfMsg := make(map[uint64]int32)
	lastOnNode := make(map[int]int32)
	for i, e := range events {
		p := int32(-1)
		if j, ok := lastOfMsg[e.MsgID]; ok && e.MsgID != 0 {
			p = j
		}
		if j, ok := lastOnNode[e.Node]; ok && j > p {
			p = j
		}
		pred[i] = p
		if e.MsgID != 0 {
			lastOfMsg[e.MsgID] = int32(i)
		}
		lastOnNode[e.Node] = int32(i)
	}
	var chain []int32
	for i := int32(len(events) - 1); i >= 0; i = pred[i] {
		chain = append(chain, i)
	}
	// Reverse into time order and build steps.
	var prevTime uint64
	var prevNode int
	for k := len(chain) - 1; k >= 0; k-- {
		e := events[chain[k]]
		t := eventTime(&e)
		if t < prevTime {
			t = prevTime
		}
		step := PathStep{Name: e.Name, Node: e.Node, MsgID: e.MsgID, Time: t}
		if len(cp.Steps) > 0 {
			step.Gap = t - prevTime
			step.Cat = referenceClassify(e.Name, e.Node == prevNode)
			cp.ByCategory[step.Cat] += step.Gap
		}
		cp.Steps = append(cp.Steps, step)
		prevTime, prevNode = t, e.Node
	}
	if n := len(cp.Steps); n > 1 {
		cp.Span = cp.Steps[n-1].Time - cp.Steps[0].Time
	}
	return cp
}
