package flitnet

import "math/bits"

// The scheduling core is event-driven: per-cycle work is proportional to
// the traffic in flight, not to the topology size.
//
//   - The route phase walks the active-lane bitset (lanes holding at least
//     one flit) instead of scanning every router × port × virtual channel.
//   - The inject phase iterates the ready-flow worklist (flows that might
//     inject this cycle) instead of walking every flow; flows whose front
//     worm sleeps in retry backoff park in a wake heap keyed by wakeAt.
//   - When both sets are empty — no flit can move and every pending worm
//     is in backoff — Tick fast-forwards the clock straight to the
//     earliest wakeAt instead of ticking cycle by cycle. The skipped
//     cycles still count into Stats.Cycles.
//
// The contract with the dense scan it replaced is byte-identical results.
// The dense scan visited lanes in ascending (router, port) order with the
// virtual-channel priority rotated each cycle, and flows in first-Inject
// order. Lane ids ascend in (router, port, vc) order, so walking the set
// bits in ascending order, one port group at a time with the same
// rotation, is the dense order restricted to the occupied lanes. A lane
// that turns active while the walk runs holds only flits that arrived this
// cycle, which the `arrived == cycle` guard skips, so visiting it or not is
// the same no-op the dense scan performed. The ready worklist is kept
// sorted on flow order, and flows made ready mid-phase merge in at the
// next phase boundary. The retained dense stepper (NewDenseReference)
// exists so tests can hold the engine to that contract.
//
// The hot path reads per-lane state only: a claim is recorded under the
// input lane whose front worm holds it, output ports resolve through a hop
// table built by New, and each lane caches its head's route candidates. A
// kill sweeps only the lanes on the worm's own path.

// Tick advances the simulation by the given number of cycles. Stretches
// where nothing can move — every pending worm in retry backoff, no flit
// buffered anywhere — are fast-forwarded in one jump, up to the requested
// budget, so waiting out a backoff costs O(1) instead of O(idle cycles).
func (n *Net) Tick(cycles int) {
	for cycles > 0 {
		if skip := n.idleCycles(cycles); skip > 0 {
			n.cycle += uint64(skip)
			n.stats.Cycles += uint64(skip)
			n.idleSkipped += uint64(skip)
			cycles -= skip
			if n.observing() {
				n.noteCycle()
			}
			continue
		}
		n.tickOnce()
		cycles--
		if n.observing() {
			n.noteCycle()
		}
	}
}

// TickUntilQuiet advances until no worms remain in flight or queued, up to
// the cycle budget. It returns true if the network drained. The quiet
// check is O(1) (maintained counters) and idle stretches fast-forward, so
// draining a backoff-bound network costs work proportional to the events
// in it, not to the cycles it spans.
func (n *Net) TickUntilQuiet(budget int) bool {
	for budget > 0 {
		if n.quiet() {
			return true
		}
		if skip := n.idleCycles(budget); skip > 0 {
			n.cycle += uint64(skip)
			n.stats.Cycles += uint64(skip)
			n.idleSkipped += uint64(skip)
			budget -= skip
			if n.observing() {
				n.noteCycle()
			}
			continue
		}
		n.tickOnce()
		budget--
		if n.observing() {
			n.noteCycle()
		}
	}
	return n.quiet()
}

// quiet reports whether nothing is queued or in flight. The counters are
// maintained at inject, start, delivery, and kill, making this O(1) where
// it used to rescan every flow.
func (n *Net) quiet() bool {
	return n.inflight == 0 && n.queuedWorms == 0
}

// idleCycles returns how many of the next budget cycles are guaranteed to
// be no-ops: zero unless both active sets are empty (no flit buffered, no
// flow able to inject). With sleepers pending the jump stops one cycle
// short of the earliest wake; with none, the whole budget is idle. The
// dense reference stepper never fast-forwards.
func (n *Net) idleCycles(budget int) int {
	if n.dense {
		return 0
	}
	if n.active.n+len(n.ready.sorted)+len(n.ready.added) > 0 {
		return 0
	}
	if n.wake.len() == 0 {
		return budget
	}
	next := n.wake.minAt()
	if next <= n.cycle+1 {
		return 0
	}
	skip := next - n.cycle - 1
	if skip > uint64(budget) {
		return budget
	}
	return int(skip)
}

// tickOnce advances one cycle. The phases allocate nothing: the per-cycle
// "who injected / which link carried a flit" sets are cycle-stamped scratch
// slices on the Net, and the active sets reuse their backing arrays.
func (n *Net) tickOnce() {
	n.cycle++
	n.stats.Cycles++
	if n.dense {
		n.denseInjectPhase()
		n.denseRoutePhase()
		return
	}
	n.injectPhase()
	n.routePhase()
}

// --- inject phase ------------------------------------------------------

// injectPhase starts and advances worm injection over the ready-flow
// worklist: one flit per node per cycle, one worm at a time per node (see
// injectFlow). Flows wake from backoff here, and flows that can make no
// progress until an external event leave the list.
func (n *Net) injectPhase() {
	for n.wake.len() > 0 && n.wake.minAt() <= n.cycle {
		n.ready.add(n.wake.pop())
	}
	n.ready.merge()
	keep := n.ready.sorted[:0]
	for _, fi := range n.ready.sorted {
		if n.injectFlow(n.order[fi], n.flowSeq[fi]) {
			keep = append(keep, fi)
		} else {
			n.ready.mark[fi] = false
		}
	}
	n.ready.sorted = keep
}

// denseInjectPhase is the retained reference: every flow, every cycle, in
// first-Inject order.
func (n *Net) denseInjectPhase() {
	for _, key := range n.order {
		n.injectFlowStep(key, n.flows[key])
	}
}

// injectFlow runs one flow's injection step and reports whether the flow
// should stay on the ready worklist. A flow leaves when it has drained
// (Inject or a kill re-queue will re-add it), when its front worm sleeps
// in retry backoff (the wake heap re-adds it at wakeAt), or when a CR worm
// is fully injected and awaiting its tail acceptance (delivery or kill
// re-adds it).
func (n *Net) injectFlow(key flowKey, f *flow) bool {
	n.injectFlowStep(key, f)
	if f.active != nil {
		return f.active.state == wormInjecting
	}
	if f.pending() == 0 {
		return false
	}
	if front := f.front(); front.wakeAt > n.cycle {
		n.wake.push(front.wakeAt, f.idx)
		return false
	}
	return true
}

// injectFlowStep is one flow's per-cycle injection work: start the next
// awake worm if the node's send path is free, then push one flit — a
// node's NI streams each packet into the network completely before
// beginning the next, so flits of different packets never interleave in
// the source FIFO (which would deadlock wormhole flow control: the first
// worm's body could be trapped behind the second worm's blocked head).
func (n *Net) injectFlowStep(key flowKey, f *flow) {
	if f.active == nil && n.injecting[key.src] == nil {
		f.active = n.startNext(f)
		if f.active != nil {
			n.injecting[key.src] = f.active
		}
	}
	w := f.active
	if w == nil || w.state != wormInjecting || n.injMark[key.src] == n.cycle {
		return
	}
	if n.injecting[key.src] != w {
		return // another flow's worm holds this node's send path
	}
	if n.fifos[w.tailLane].full() {
		// The head is stuck at the source; in CR mode a worm that
		// cannot even enter counts as blocked too.
		if w.sent == 0 {
			n.noteBlocked(w)
		}
		return
	}
	n.pushFlit(w.tailLane, flit{worm: w, kind: n.flitKind(w), arrived: n.cycle})
	w.sent++
	n.injMark[key.src] = n.cycle
	if w.sent == w.flits {
		w.state = wormInFlight
		n.injecting[key.src] = nil
		if n.cfg.Mode != CR {
			// Non-CR flows pipeline: the next worm may start while
			// this one's tail is still traveling.
			f.active = nil
		}
	}
}

// nextAwake pops the flow's next awake worm.
func (f *flow) nextAwake(cycle uint64) *worm {
	if f.pending() == 0 {
		return nil
	}
	if f.front().wakeAt > cycle {
		return nil
	}
	return f.popFront()
}

func (n *Net) startNext(f *flow) *worm {
	w := f.nextAwake(n.cycle)
	if w == nil {
		return nil
	}
	n.queuedWorms--
	w.state = wormInjecting
	w.blocked = 0
	if n.obs != nil {
		// Close the wait that ends here: time in the inject queue on the
		// first attempt, retry backoff on subsequent ones.
		name := "flit.wait.queue"
		if w.retries > 0 {
			name = "flit.wait.backoff"
		}
		msg, pkt, parent := w.identity()
		n.obs.Span(name, w.waitFrom, n.cycle, msg, pkt, parent)
	}
	w.startedAt = n.cycle
	// Rotate injection channels so consecutive worms can bypass a blocked
	// predecessor at the source port.
	w.tailLane = n.srcPort[w.packet.Src]*n.vcs + int32(w.id%uint64(n.vcs))
	n.inflight++
	return w
}

// flitKind determines the next flit of a worm being injected.
func (n *Net) flitKind(w *worm) flitKind {
	switch {
	case w.sent == 0:
		return flitHead
	case w.sent == w.flits-1:
		return flitTail
	case w.sent-1 < len(w.packet.Data):
		return flitBody
	default:
		return flitPad
	}
}

// --- route phase -------------------------------------------------------

// routePhase advances at most one flit per occupied input lane per cycle,
// with each physical output port carrying at most one flit per cycle. It
// walks the active-lane bitset in ascending id order — the dense scan's
// (router, port) order — applying the per-cycle virtual-channel rotation
// within each port, and clears the lanes it leaves empty.
func (n *Net) routePhase() {
	if n.vcs == 1 {
		for wi := range n.active.bits {
			for word := n.active.bits[wi]; word != 0; word &= word - 1 {
				id := int32(wi<<6 | bits.TrailingZeros64(word))
				n.advanceLane(id)
				if n.fifos[id].len() == 0 {
					n.active.remove(id)
				}
			}
		}
		return
	}
	vcs := n.vcs
	rot := int32(n.cycle % uint64(vcs))
	for id := n.active.next(0); id >= 0; id = n.active.next(id) {
		// Rotate virtual-channel priority each cycle for fairness — the
		// same rotation the dense scan applied to all vcs, here restricted
		// to the occupied ones (visiting an empty lane was a no-op).
		base := id - id%vcs
		for v := int32(0); v < vcs; v++ {
			vc := v + rot
			if vc >= vcs {
				vc -= vcs
			}
			if n.active.has(base + vc) {
				n.advanceLane(base + vc)
			}
		}
		for id = base; id < base+vcs; id++ {
			if n.active.has(id) && n.fifos[id].len() == 0 {
				n.active.remove(id)
			}
		}
	}
}

// denseRoutePhase is the retained reference: every lane of every router,
// every cycle.
func (n *Net) denseRoutePhase() {
	vcs := n.vcs
	rot := int32(n.cycle % uint64(vcs))
	for base := int32(0); base < int32(len(n.fifos)); base += vcs {
		for v := int32(0); v < vcs; v++ {
			n.advanceLane(base + (v+rot)%vcs)
		}
	}
}

// advanceLane moves the front flit of input lane id one step: along the
// worm's claim if it holds one here, otherwise (a head) through routing.
func (n *Net) advanceLane(id int32) {
	buf := &n.fifos[id]
	if buf.len() == 0 {
		return
	}
	fl := *buf.front()
	if fl.arrived == n.cycle {
		return // moved into this lane this cycle; advances next cycle
	}
	w := fl.worm
	var out, port int32
	if c := n.laneClaim[id]; c.worm == w {
		// The worm already holds an output lane here — either the head
		// claimed it on an earlier cycle but the link was busy, or this
		// is a body/tail flit following the head.
		out, port = c.out, c.port
	} else if fl.kind == flitHead {
		var ok bool
		if out, port, ok = n.routeHead(id, w); !ok {
			return // blocked, consumed at a terminal, or killed
		}
	} else {
		// A kill sweeps every flit of its worm, and a live worm's body
		// follows a claim, so no other flit can reach a lane's front.
		panic("flitnet: body flit without a claim")
	}
	if n.outUsed[port] == n.cycle {
		return // the physical link already carried a flit this cycle
	}
	hop := n.hop[port]
	if hop < 0 {
		// Delivery: consume the flit; the tail completes the packet.
		n.popFlit(id)
		n.moved(port)
		if fl.kind == flitTail {
			n.finishWorm(id, w, int(-2-hop))
		}
		return
	}
	// Router-to-router hop: needs space downstream on the claimed lane.
	down := out + (hop-port)*n.vcs
	if n.fifos[down].full() {
		if fl.kind == flitHead {
			n.noteBlocked(w)
		}
		return
	}
	n.popFlit(id)
	fl.arrived = n.cycle
	n.pushFlit(down, fl)
	n.moved(port)
	w.blocked = 0
	if fl.kind == flitTail {
		// The tail releases this router's claim on the output lane.
		n.release(id, w)
		w.tailLane = down
	}
}

// moved accounts one flit crossing output port's link this cycle.
func (n *Net) moved(port int32) {
	n.outUsed[port] = n.cycle
	n.stats.FlitMoves++
	if n.linkObs != nil {
		n.linkObs[port].Inc()
	}
}

// claim gives w output lane out of output port, recorded under its input
// lane in.
func (n *Net) claim(in, out, port int32, w *worm) {
	n.owner[out] = w
	n.laneClaim[in] = laneClaim{worm: w, out: out, port: port}
	w.pushClaim(in)
}

// release drops w's oldest claim, the one under input lane in, as its tail
// leaves that lane.
func (n *Net) release(in int32, w *worm) {
	n.owner[n.laneClaim[in].out] = nil
	n.laneClaim[in] = laneClaim{}
	w.popClaim()
}

// headCands returns the output port ids the head of worm w at the front of
// input lane id may take, computing them once per worm and lane: a blocked
// head retries every cycle with the same answer.
func (n *Net) headCands(id int32, w *worm) []int32 {
	cache := n.routeCands[int(id)*n.routeStride : (int(id)+1)*n.routeStride]
	if rt := &n.routes[id]; rt.key == w.id+1 {
		return cache[:rt.n]
	}
	port := id / n.vcs
	r := n.portRtr[port]
	port0 := n.portBase[r]
	n.routeScratch = n.cfg.Topology.RouteAppend(int(r), int(port-port0), w.packet.Dst, n.routeScratch[:0])
	cands := n.routeScratch
	if n.cfg.Mode != Adaptive && len(cands) > 1 {
		cands = cands[:1]
	}
	if len(cands) > len(cache) {
		panic("flitnet: more route candidates than router ports")
	}
	for i, c := range cands {
		cache[i] = port0 + int32(c)
	}
	n.routes[id] = headRoute{key: w.id + 1, n: int32(len(cands))}
	return cache[:len(cands)]
}

// routeHead claims an output lane for the head of worm w at the front of
// input lane in, returning (lane, port, true) on success. On rejection
// the worm is killed; on blocking the head stays put; on delivery at a
// terminal the head is consumed and false is returned with the claim
// recorded.
func (n *Net) routeHead(in int32, w *worm) (out, port int32, ok bool) {
	cands := n.headCands(in, w)
	if len(cands) == 0 {
		n.kill(w, "unroutable")
		return 0, 0, false
	}
	vcs := n.vcs
	for ci, port := range cands {
		hop := n.hop[port]
		if hop >= 0 {
			// Virtual-channel discipline: channel 0 is the escape lane,
			// restricted to the deterministic first candidate; higher
			// channels may take any productive candidate.
			for outVC := int32(0); outVC < vcs; outVC++ {
				if outVC == 0 && ci != 0 && n.cfg.Mode == Adaptive && vcs > 1 {
					continue
				}
				out := port*vcs + outVC
				if n.owner[out] != nil || n.fifos[hop*vcs+outVC].full() {
					continue
				}
				n.claim(in, out, port, w)
				return out, port, true
			}
			continue
		}
		// Arrival at the destination node: the acceptance check
		// runs as the header begins to arrive. The NI ejects one
		// flit per cycle but reassembles per virtual channel, so
		// each ejection lane can hold a different worm.
		if n.outUsed[port] == n.cycle {
			continue
		}
		out = -1
		for ej := port * vcs; ej < (port+1)*vcs; ej++ {
			if n.owner[ej] == nil {
				out = ej
				break
			}
		}
		if out < 0 {
			continue // all ejection lanes busy
		}
		node := int(-2 - hop)
		if node != w.packet.Dst {
			n.kill(w, "misroute")
			return 0, 0, false
		}
		if a := n.accepts[node]; a != nil && !a(w.packet) {
			n.stats.Rejected++
			n.kill(w, "rejected")
			return 0, 0, false
		}
		n.claim(in, out, port, w)
		n.popFlit(in) // consume the head
		n.moved(port)
		w.blocked = 0
		return 0, 0, false // head consumed; nothing more to move
	}
	n.noteBlocked(w)
	return 0, 0, false
}

// noteBlocked ages a blocked head and applies the CR kill timeout. The
// stall counter feeds the flit.wait.blocked span emitted at delivery — one
// summary span instead of a per-cycle event, keeping trace volume bounded.
func (n *Net) noteBlocked(w *worm) {
	w.blocked++
	w.stallCycles++
	if n.cfg.Mode == CR && w.blocked > uint64(n.cfg.KillTimeout) {
		n.kill(w, "timeout")
	}
}

// finishWorm completes delivery: the tail has been accepted at the output
// claimed from input lane in, which in CR is the end-to-end
// acknowledgement. The worm struct returns to the pool; its payload buffer
// now belongs to the receiver.
func (n *Net) finishWorm(in int32, w *worm, node int) {
	n.release(in, w)
	w.state = wormDelivered
	n.inflight--
	latency := n.cycle - w.injected
	n.stats.LatencySum += latency
	n.stats.LatencyCount++
	if latency > n.stats.LatencyMax {
		n.stats.LatencyMax = latency
	}
	if n.obs != nil {
		msg, pkt, parent := w.identity()
		n.obs.Span("flit.xfer", w.startedAt, n.cycle, msg, pkt, parent)
		if w.stallCycles > 0 {
			// The blocked-head summary: stall cycles accumulated anywhere
			// along the path, reported as one span ending at delivery.
			n.obs.Span("flit.wait.blocked", n.cycle-w.stallCycles, n.cycle, msg, pkt, parent)
		}
		n.obs.Event("flit.delivered", n.cycle, msg, pkt, parent)
	}
	n.recvq[node].push(w.packet)
	n.recvqTotal++
	n.queued[w.packet.Src]--
	key := flowKey{w.packet.Src, w.packet.Dst}
	if f := n.flows[key]; f != nil && f.active == w {
		f.active = nil
		// A CR flow held its next worm back for this acceptance; let
		// the inject phase look at it again.
		n.ready.add(f.idx)
	}
	n.putWorm(w)
}

// kill tears down a worm's path — the CR path-release mechanism (in non-CR
// modes it only fires on misroutes, which are topology bugs). A worm's
// flits lie only in the lane holding its tail and in the input and
// downstream lanes of the claims it still holds, so the sweep visits
// exactly those and releases the claims on the way: O(path length),
// independent of the traffic elsewhere. The worm retries after a backoff,
// re-entering its flow queue at the front so transmission order is
// preserved; retry exhaustion fails the injection and recycles the worm
// and its payload buffer.
func (n *Net) kill(w *worm, reason string) {
	if w.state == wormKilled || w.state == wormFailed {
		return
	}
	w.state = wormKilled
	n.inflight-- // re-queued (or failed) below; no longer in the network
	n.stats.Kills++
	if n.obs != nil {
		msg, pkt, parent := w.identity()
		n.obs.Event(killEventName(reason), n.cycle, msg, pkt, parent)
	}

	n.sweep(w.tailLane, w)
	for _, in := range w.claims[w.claimHead:] {
		c := n.laneClaim[in]
		n.sweep(in, w)
		if hop := n.hop[c.port]; hop >= 0 {
			n.sweep(c.out+(hop-c.port)*n.vcs, w)
		}
		n.owner[c.out] = nil
		n.laneClaim[in] = laneClaim{}
	}
	w.claims = w.claims[:0]
	w.claimHead = 0

	key := flowKey{w.packet.Src, w.packet.Dst}
	f := n.flows[key]
	if f != nil && f.active == w {
		f.active = nil
	}
	if n.injecting[w.packet.Src] == w {
		n.injecting[w.packet.Src] = nil
	}
	if w.retries >= n.cfg.MaxRetries {
		w.state = wormFailed
		n.stats.FailedWorms++
		n.queued[w.packet.Src]--
		n.stats.Dropped++
		if n.obs != nil {
			msg, pkt, parent := w.identity()
			n.obs.Event("flit.failed", n.cycle, msg, pkt, parent)
		}
		n.putWords(w.packet.Data)
		n.putWorm(w)
		if f != nil {
			n.ready.add(f.idx) // the flow's next worm may start now
		}
		return
	}
	w.retries++
	n.stats.Retries++
	w.state = wormQueued
	w.sent = 0
	w.blocked = 0
	w.waitFrom = n.cycle
	w.stallCycles = 0
	// Exponential backoff with deterministic per-worm jitter: two worms
	// that killed each other must not retry in lockstep, or they collide
	// and kill each other forever (retry livelock).
	shift := w.retries
	if shift > 6 {
		shift = 6
	}
	backoff := uint64(n.cfg.RetryBackoff) << shift
	jitter := w.id % uint64(n.cfg.RetryBackoff+1)
	w.wakeAt = n.cycle + backoff + jitter
	if f != nil {
		f.pushFront(w)
		n.queuedWorms++
		// The inject phase will find the front worm sleeping and park
		// the flow in the wake heap until wakeAt.
		n.ready.add(f.idx)
	}
}

// sweep removes w's flits from lane id, keeping the gauges exact.
func (n *Net) sweep(id int32, w *worm) {
	if removed := n.fifos[id].filterWorm(w); removed > 0 && n.gauges != nil {
		n.buffered -= removed
		n.bufferedVC[id%n.vcs] -= removed
	}
}

// killEventName maps a kill reason to its event-name constant (constants,
// not concatenation, so the kill path allocates nothing).
func killEventName(reason string) string {
	switch reason {
	case "timeout":
		return "flit.kill.timeout"
	case "rejected":
		return "flit.kill.rejected"
	case "misroute":
		return "flit.kill.misroute"
	default:
		return "flit.kill.unroutable"
	}
}
