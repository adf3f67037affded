// Package flitnet is a flit-level wormhole-routed network simulator. It
// demonstrates the router mechanisms behind the two behavioral substrates
// of package network:
//
//   - Deterministic routing (dimension-order on a mesh, fixed up-path on a
//     fat tree) delivers each flow over a single path, preserving order.
//   - Adaptive routing exploits the fat tree's redundant up links (or the
//     mesh's productive directions); worms of one flow can take different
//     paths and arrive out of order — the CM-5-style network feature whose
//     software cost the paper measures.
//   - Compressionless Routing mode adds the Section 4 services: a worm's
//     header may be rejected by a resource-checking destination (tearing
//     down the path without deadlock), a worm whose head cannot advance
//     for KillTimeout cycles is killed and retried from the source
//     (deadlock recovery without acceptance guarantees), short worms are
//     padded so the tail's acceptance doubles as an end-to-end
//     acknowledgement, and worms of one flow are issued one at a time so
//     transmission order is preserved even across kills and retries.
//
// A packet becomes a worm of single-word flits: one head (routing
// information), one flit per payload word, and one tail. Routers have one
// FIFO input buffer per port; a worm's head claims an output port, its body
// follows the claimed path, and the tail releases it — classic wormhole
// flow control. The simulation is cycle-stepped and fully deterministic.
package flitnet

import (
	"errors"
	"fmt"

	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/topology"
)

// Mode selects the routing discipline.
type Mode int

// Routing modes.
const (
	// Deterministic follows the first route candidate everywhere:
	// single-path, order-preserving, no recovery.
	Deterministic Mode = iota
	// Adaptive takes the first route candidate whose output is free,
	// permitting multipath and hence out-of-order delivery.
	Adaptive
	// CR is Compressionless Routing: deterministic paths plus header
	// rejection, kill-and-retry, padding, and per-flow serialization.
	CR
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case Deterministic:
		return "deterministic"
	case Adaptive:
		return "adaptive"
	case CR:
		return "cr"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config assembles a flit network.
type Config struct {
	// Topology is required.
	Topology topology.Topology
	// Mode selects the routing discipline.
	Mode Mode
	// PacketWords is the payload capacity of one packet. Defaults to 4.
	PacketWords int
	// BufferFlits is the capacity of each router input buffer. Defaults
	// to 4.
	BufferFlits int
	// InjectQueue bounds worms waiting at each node. Defaults to 16;
	// injection beyond it backpressures.
	InjectQueue int
	// KillTimeout (CR only) is how many cycles a worm's head may sit
	// blocked before the worm is killed and retried. Defaults to 64.
	KillTimeout int
	// RetryBackoff (CR only) is how many cycles a killed worm waits
	// before re-entering its flow queue. Defaults to 16.
	RetryBackoff int
	// MaxRetries (CR only) bounds kill/reject retries per worm before
	// the injection is reported failed. Defaults to 64.
	MaxRetries int
	// VirtualChannels multiplexes each physical link over V virtual
	// channels (Dally's flow control, one of the features the paper
	// names as a source of out-of-order delivery). Each input port gets
	// V independent FIFOs; a worm claims one (port, vc) lane per hop,
	// and a physical link still carries at most one flit per cycle, so
	// worms sharing a link interleave instead of serializing. In
	// adaptive mode channel 0 is the escape lane, restricted to the
	// deterministic first route candidate (Duato's discipline). Defaults
	// to 1. CR mode always uses a single channel: its padding and
	// implicit-acknowledgement semantics assume the worm owns its path.
	VirtualChannels int
	// Shards is kept for source compatibility with callers written for an
	// earlier multi-goroutine engine. The net always runs the one serial
	// engine: New accepts 0 and 1 and rejects every other value.
	Shards int
}

type flitKind uint8

const (
	flitHead flitKind = iota
	flitBody
	flitPad
	flitTail
)

type flit struct {
	worm    *worm
	kind    flitKind
	arrived uint64 // cycle the flit entered its current buffer
}

type wormState uint8

const (
	wormQueued wormState = iota
	wormInjecting
	wormInFlight // fully injected, tail still traveling
	wormDelivered
	wormKilled
	wormFailed
)

type worm struct {
	id       uint64
	packet   network.Packet
	state    wormState
	flits    int // total flits including head, pads, tail
	sent     int // flits pushed into the network so far
	retries  int
	blocked  uint64 // consecutive cycles the head could not advance
	wakeAt   uint64 // cycle a killed worm re-enters its flow queue
	injected uint64 // cycle the packet entered the inject queue
	// Observability bookkeeping (costs three stores per worm when no
	// observer is attached): waitFrom marks when the current wait began
	// (inject-queue entry or kill backoff), startedAt when injection began,
	// and stallCycles counts cycles the head sat blocked in transit.
	waitFrom    uint64
	startedAt   uint64
	stallCycles uint64
	// claims lists the input lanes from which this worm currently holds an
	// output lane (see Net.laneClaim), in path order; claimHead indexes the
	// first still-held claim. The head appends as it claims, the tail
	// releases front-first, and a kill releases the remainder.
	claims    []int32
	claimHead int
	// tailLane is the lane holding (or, while the worm is still injecting,
	// about to receive) the worm's tail. With the input and downstream
	// lanes of the remaining claims it bounds where the worm's flits can
	// be, which is all a kill has to sweep.
	tailLane int32
}

// pushClaim records that the worm holds the claim of input lane in.
func (w *worm) pushClaim(in int32) { w.claims = append(w.claims, in) }

// popClaim releases the worm's oldest claim (the tail has left that
// lane); the list rewinds once empty so it never grows past path length.
func (w *worm) popClaim() {
	w.claimHead++
	if w.claimHead == len(w.claims) {
		w.claims = w.claims[:0]
		w.claimHead = 0
	}
}

// laneFIFO is the fixed-capacity flit ring backing one virtual channel of
// one input port: a BufferFlits-long window of the Net's flit slab. Push
// and pop never allocate.
type laneFIFO struct {
	buf     []flit
	head, n int32
}

func (q *laneFIFO) len() int   { return int(q.n) }
func (q *laneFIFO) full() bool { return int(q.n) == len(q.buf) }

// front returns the flit at the head of the ring; call only when len > 0.
func (q *laneFIFO) front() *flit { return &q.buf[q.head] }

// at returns the ring index i places after the head.
func (q *laneFIFO) at(i int32) int32 {
	if i += q.head; int(i) >= len(q.buf) {
		i -= int32(len(q.buf))
	}
	return i
}

func (q *laneFIFO) push(f flit) {
	q.buf[q.at(q.n)] = f
	q.n++
}

func (q *laneFIFO) pop() {
	q.buf[q.head] = flit{}
	if q.head++; int(q.head) == len(q.buf) {
		q.head = 0
	}
	q.n--
}

// filterWorm removes every flit of w from the ring, preserving the order
// of the rest — the kill sweep. It returns how many flits it removed, so
// the caller can keep the buffered-flit gauges exact.
func (q *laneFIFO) filterWorm(w *worm) int {
	kept := int32(0)
	for i := int32(0); i < q.n; i++ {
		fl := q.buf[q.at(i)]
		if fl.worm == w {
			continue
		}
		q.buf[q.at(kept)] = fl
		kept++
	}
	removed := q.n - kept
	for i := kept; i < q.n; i++ {
		q.buf[q.at(i)] = flit{}
	}
	q.n = kept
	return int(removed)
}

// laneClaim is the output lane a worm holds at one router, recorded under
// the input lane the worm arrives on. Only the worm at the front of an
// input lane can hold that lane's claim — the next worm's head cannot route
// until the holder's tail has left — so one slot per input lane suffices.
type laneClaim struct {
	worm *worm
	out  int32 // output lane id
	port int32 // its port id, out / vcs
}

// headRoute caches RouteAppend's candidates for the head at the front of
// one lane. The key is the worm id + 1 (0 marks an empty entry), not the
// worm pointer: pooled worm structs are reused for packets with other
// destinations.
type headRoute struct {
	key uint64
	n   int32
}

type flowKey struct {
	src, dst int
}

type flow struct {
	queue  []*worm // worms awaiting injection, in order; head indexes the front
	head   int
	active *worm // the worm currently entering the network (CR: at most one in flight)
	idx    int32 // position in Net.order — the ready worklist's sort key
}

func (f *flow) pending() int { return len(f.queue) - f.head }

func (f *flow) front() *worm { return f.queue[f.head] }

func (f *flow) popFront() *worm {
	w := f.queue[f.head]
	f.queue[f.head] = nil
	f.head++
	if f.head == len(f.queue) {
		f.queue = f.queue[:0]
		f.head = 0
	}
	return w
}

func (f *flow) pushBack(w *worm) { f.queue = append(f.queue, w) }

// pushFront re-queues a killed worm at the front, reusing the popped slot
// when one exists so retries do not reallocate the queue.
func (f *flow) pushFront(w *worm) {
	if f.head > 0 {
		f.head--
		f.queue[f.head] = w
		return
	}
	f.queue = append(f.queue, nil)
	copy(f.queue[1:], f.queue)
	f.queue[0] = w
}

// Stats extends the behavioral substrate counters with flit-level detail.
type Stats struct {
	network.Stats
	Kills        uint64 // worms killed (timeout or rejection)
	Retries      uint64 // kill/reject retries performed
	Cycles       uint64 // simulated cycles
	FlitMoves    uint64 // individual flit hops
	PadFlits     uint64 // padding flits injected (CR)
	FailedWorms  uint64 // worms that exhausted their retries
	LatencySum   uint64 // total queue-to-tail-delivery latency, cycles
	LatencyMax   uint64 // worst packet latency observed, cycles
	LatencyCount uint64 // packets contributing to LatencySum
}

// MeanLatency returns the average injection-to-delivery latency in cycles.
func (s Stats) MeanLatency() float64 {
	if s.LatencyCount == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.LatencyCount)
}

// pktQueue is a per-node delivery queue that recycles its backing array:
// popping advances a head index instead of re-slicing, and a drained queue
// rewinds to reuse its capacity, so steady-state delivery allocates
// nothing.
type pktQueue struct {
	buf  []network.Packet
	head int
}

func (q *pktQueue) len() int { return len(q.buf) - q.head }

func (q *pktQueue) push(p network.Packet) { q.buf = append(q.buf, p) }

func (q *pktQueue) pop() (network.Packet, bool) {
	if q.head == len(q.buf) {
		return network.Packet{}, false
	}
	p := q.buf[q.head]
	q.buf[q.head] = network.Packet{}
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return p, true
}

// Net is the flit-level network. It implements network.Network (injection
// may backpressure; packets appear at TryRecv once their tail is accepted)
// plus Tick to advance simulated time.
type Net struct {
	cfg       Config
	flows     map[flowKey]*flow
	order     []flowKey // deterministic iteration order for flows
	recvq     []pktQueue
	accepts   []network.Acceptor
	nextID    uint64
	cycle     uint64
	stats     Stats
	queued    []int   // worms queued or active per node, for backpressure
	injecting []*worm // the worm currently occupying each node's send path
	inflight  int     // worms injecting or traveling
	// injMark[node] stamped with the current cycle means the node already
	// injected a flit this cycle (the inject phase's former per-tick map).
	injMark []uint64
	// wormPool and wordPool recycle worm structs and payload buffers:
	// worms return on delivery or failure, payload buffers only on
	// failure (a delivered payload escapes to the receiver via TryRecv).
	wormPool []*worm
	wordPool [][]network.Word
	// routeScratch is the candidate buffer handed to Topology.RouteAppend.
	routeScratch []int

	// --- port and lane tables -------------------------------------------
	//
	// Every router port has a port id, portBase[r] + port, and each of its
	// virtual channels a lane id, port id * vcs + vc, so ascending lane ids
	// are the dense scan's (router, port, vc) order. Input buffers and
	// output lanes share the numbering: lane id l names both the input FIFO
	// of (router, port, vc) and that router's output lane on the same port
	// and channel.
	vcs      int32
	portBase []int32 // router -> port id of its port 0
	portRtr  []int32 // port id -> router
	// hop resolves an output port without the Topology interface: the
	// peer router's input port id, -2-node for a port ejecting to node, or
	// -1 for an unconnected port (routing never selects one).
	hop []int32
	// srcPort is each node's injection port id.
	srcPort []int32
	// outUsed[port] stamped with the current cycle means the physical
	// output link already carried a flit this cycle.
	outUsed []uint64
	// fifos are the input buffers, windows of one flit slab.
	fifos []laneFIFO
	// laneClaim[in] is the output lane held by the worm at the front of
	// input lane in; owner[out] is the worm holding output lane out. The
	// two always mirror each other.
	laneClaim []laneClaim
	owner     []*worm
	// routes and routeCands cache each lane's head route, routeStride
	// candidates per lane (the most ports any router has).
	routes      []headRoute
	routeCands  []int32
	routeStride int

	// --- event-driven engine state ------------------------------------
	//
	// The route phase walks the active-lane bitset, the inject phase the
	// sorted ready-flow worklist; both replay the dense scan's visiting
	// order exactly, see engine.go for the contract.

	// dense selects the retained dense reference stepper (see
	// NewDenseReference). The active sets stay maintained either way, so a
	// dense net can be compared against an event-driven twin at any point.
	dense bool
	// active holds every lane with at least one buffered flit, plus lanes
	// a kill emptied that the route phase has not visited since.
	active laneSet
	// ready is the injectable-flow worklist, sorted by flow order index.
	// Flows leave it when they drain, sleep in retry backoff (parking in
	// wake), or wait on a CR tail acceptance, and return on Inject, kill,
	// delivery, or backoff expiry.
	ready worklist
	// wake holds sleeping flows keyed by their front worm's wakeAt; its
	// minimum is the idle fast-forward target.
	wake wakeHeap
	// flowSeq maps a flow's order index back to the flow, parallel to
	// order.
	flowSeq []*flow
	// queuedWorms counts worms sitting in flow queues and recvqTotal the
	// delivered-but-unread packets, so quiet() and Pending() are O(1)
	// instead of rescanning every flow per cycle.
	queuedWorms int
	recvqTotal  int
	// idleSkipped counts cycles covered by fast-forward rather than
	// stepped individually; they are still folded into stats.Cycles.
	idleSkipped uint64

	// obs, when non-nil, records flit-level transit events (queue waits,
	// transfer spans, backpressure, kills, deliveries). Every emission site
	// lives in the engine functions shared by the dense and event-driven
	// steppers, so traces are byte-identical across both.
	obs *obs.FlitScope

	// gauges, when non-nil, receives the network's occupancy state once
	// per advanced cycle (see noteCycle); buffered/bufferedVC maintain the
	// input-buffer population it publishes. linkObs[port], when non-nil,
	// counts flits moved across each router output link. Both attach with
	// the observer scope; the maintenance sites are shared between the
	// engines, so the published series are byte-identical across both.
	gauges     *obs.FlitGauges
	buffered   int
	bufferedVC []int
	linkObs    []*obs.Counter
	// onCycle, when non-nil, is invoked after the mutations of every
	// advanced cycle — once per stepped cycle, once per idle fast-forward
	// jump (covering the frozen cycles in between). The timeline sampler
	// hangs off it.
	onCycle func(cycle uint64)
}

// New builds the network.
func New(cfg Config) (*Net, error) {
	if cfg.Topology == nil {
		return nil, errors.New("flitnet: nil topology")
	}
	if cfg.PacketWords == 0 {
		cfg.PacketWords = 4
	}
	if cfg.PacketWords < 1 {
		return nil, fmt.Errorf("flitnet: packet payload %d", cfg.PacketWords)
	}
	if cfg.BufferFlits == 0 {
		cfg.BufferFlits = 4
	}
	if cfg.BufferFlits < 2 {
		return nil, fmt.Errorf("flitnet: buffers need >= 2 flits, got %d", cfg.BufferFlits)
	}
	if cfg.InjectQueue == 0 {
		cfg.InjectQueue = 16
	}
	if cfg.KillTimeout == 0 {
		cfg.KillTimeout = 64
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 16
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 64
	}
	if cfg.VirtualChannels == 0 {
		cfg.VirtualChannels = 1
	}
	if cfg.VirtualChannels < 1 || cfg.VirtualChannels > 8 {
		return nil, fmt.Errorf("flitnet: virtual channels must be 1-8, got %d", cfg.VirtualChannels)
	}
	if cfg.Mode == CR {
		cfg.VirtualChannels = 1 // CR worms own their path end to end
	}
	if cfg.Shards != 0 && cfg.Shards != 1 {
		return nil, fmt.Errorf("flitnet: Shards must be 0 or 1 (the engine is serial), got %d", cfg.Shards)
	}
	topo := cfg.Topology
	nodes := topo.Nodes()
	n := &Net{
		cfg:       cfg,
		flows:     make(map[flowKey]*flow),
		recvq:     make([]pktQueue, nodes),
		accepts:   make([]network.Acceptor, nodes),
		queued:    make([]int, nodes),
		injecting: make([]*worm, nodes),
		injMark:   make([]uint64, nodes),
		vcs:       int32(cfg.VirtualChannels),
		portBase:  make([]int32, topo.NumRouters()),
		srcPort:   make([]int32, nodes),
	}
	ports := int32(0)
	for r := range n.portBase {
		n.portBase[r] = ports
		p := topo.Ports(r)
		ports += int32(p)
		n.routeStride = max(n.routeStride, p)
	}
	n.portRtr = make([]int32, ports)
	n.hop = make([]int32, ports)
	n.outUsed = make([]uint64, ports)
	for r, base := range n.portBase {
		for p := 0; p < topo.Ports(r); p++ {
			id := base + int32(p)
			n.portRtr[id] = int32(r)
			peer, peerPort, node := topo.Neighbor(r, p)
			switch {
			case node != topology.Terminal:
				n.hop[id] = -2 - int32(node)
			case peer != topology.Terminal:
				n.hop[id] = n.portBase[peer] + int32(peerPort)
			default:
				n.hop[id] = -1
			}
		}
	}
	for node := range n.srcPort {
		r, p := topo.NodePort(node)
		n.srcPort[node] = n.portBase[r] + int32(p)
	}
	lanes := int(ports) * cfg.VirtualChannels
	depth := cfg.BufferFlits
	slab := make([]flit, lanes*depth)
	n.fifos = make([]laneFIFO, lanes)
	for id := range n.fifos {
		n.fifos[id].buf = slab[id*depth : (id+1)*depth : (id+1)*depth]
	}
	n.laneClaim = make([]laneClaim, lanes)
	n.owner = make([]*worm, lanes)
	n.routes = make([]headRoute, lanes)
	n.routeCands = make([]int32, lanes*n.routeStride)
	n.active.grow(lanes)
	return n, nil
}

// pushFlit places a flit into a lane and activates the lane. Every flit
// enters a buffer through here, which is what keeps the active set a
// superset of the occupied lanes at all times — and the buffered-flit
// gauges exact.
func (n *Net) pushFlit(id int32, fl flit) {
	n.fifos[id].push(fl)
	n.active.add(id)
	if n.gauges != nil {
		n.buffered++
		n.bufferedVC[id%n.vcs]++
	}
}

// popFlit removes a lane's front flit, keeping the buffered-flit gauges in
// step. Every consuming pop goes through here; the kill sweep accounts for
// its bulk removals separately.
func (n *Net) popFlit(id int32) {
	n.fifos[id].pop()
	if n.gauges != nil {
		n.buffered--
		n.bufferedVC[id%n.vcs]--
	}
}

// NewDenseReference builds the network on the retained dense scheduling
// core: every router × port × virtual channel is scanned every cycle, the
// way the engine worked before the event-driven worklists. It is the
// differential oracle the event-driven engine is held to — results are
// byte-identical, but cost scales with topology size instead of flits in
// flight — and the baseline of the idle fast-forward speedup bench. Use
// it only from tests and benchmarks.
func NewDenseReference(cfg Config) (*Net, error) {
	n, err := New(cfg)
	if err != nil {
		return nil, err
	}
	n.dense = true
	return n, nil
}

// MustNew is New that panics on bad configuration.
func MustNew(cfg Config) *Net {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Name implements network.Network.
func (n *Net) Name() string {
	return fmt.Sprintf("flitnet(%s,%s)", n.cfg.Topology.Name(), n.cfg.Mode)
}

// Nodes implements network.Network.
func (n *Net) Nodes() int { return n.cfg.Topology.Nodes() }

// PacketWords implements network.Network.
func (n *Net) PacketWords() int { return n.cfg.PacketWords }

// SetAcceptor installs a destination's header-acceptance check (CR mode).
func (n *Net) SetAcceptor(node int, a network.Acceptor) error {
	if node < 0 || node >= n.Nodes() {
		return fmt.Errorf("flitnet: no node %d", node)
	}
	n.accepts[node] = a
	return nil
}

// Inject implements network.Network: the packet becomes a worm queued at
// its source node.
func (n *Net) Inject(p network.Packet) error {
	if p.Src < 0 || p.Src >= n.Nodes() || p.Dst < 0 || p.Dst >= n.Nodes() {
		return fmt.Errorf("%w: src=%d dst=%d", network.ErrBadPacket, p.Src, p.Dst)
	}
	if len(p.Data) > n.cfg.PacketWords {
		return fmt.Errorf("%w: %d words", network.ErrBadPacket, len(p.Data))
	}
	if n.queued[p.Src] >= n.cfg.InjectQueue {
		n.stats.Backpressure++
		n.obs.Event("flit.backpressure", n.cycle, p.Msg, p.Pkt, p.Span)
		return network.ErrBackpressure
	}
	data := n.getWords(len(p.Data))
	copy(data, p.Data)
	p.Data = data

	w := n.getWorm()
	*w = worm{id: n.nextID, packet: p, state: wormQueued, injected: n.cycle, waitFrom: n.cycle, claims: w.claims[:0]}
	n.nextID++
	w.flits = n.wormFlits(p)
	key := flowKey{p.Src, p.Dst}
	f := n.flows[key]
	if f == nil {
		f = &flow{idx: int32(len(n.order))}
		n.flows[key] = f
		n.order = append(n.order, key)
		n.flowSeq = append(n.flowSeq, f)
	}
	f.pushBack(w)
	n.queuedWorms++
	n.ready.add(f.idx)
	n.queued[p.Src]++
	n.stats.Injected++
	if n.obs != nil {
		msg, pkt, parent := w.identity()
		n.obs.Event("flit.queued", n.cycle, msg, pkt, parent)
	}
	return nil
}

// syntheticMsgBase offsets the per-worm message identities synthesized for
// packets the messaging layer did not trace, keeping them disjoint from
// hub-allocated ids (which are small and sequential).
const syntheticMsgBase = uint64(1) << 32

// identity resolves the observability identity a worm's events carry: the
// packet's stamped identity when a messaging layer traced it, otherwise a
// synthetic per-worm identity so raw flit workloads (netload's generators
// inject packets directly, with no protocol above) still reconstruct into
// per-message span trees.
func (w *worm) identity() (msg, pkt, parent uint64) {
	if w.packet.Msg != 0 || w.packet.Span != 0 {
		return w.packet.Msg, w.packet.Pkt, w.packet.Span
	}
	return syntheticMsgBase + w.id, w.id + 1, 0
}

// SetFlitObserver attaches (or, with nil, detaches) a flit-level recording
// scope. Attach before ticking; the emission points are shared between the
// dense and event-driven engines, so recorded traces are byte-identical
// across both. Attaching also resolves the occupancy gauges (in-flight
// worms, injection backlog, receive-queue depth, per-VC buffered flits)
// published once per advanced cycle, and the per-link flit counters the
// timeline turns into utilization series.
func (n *Net) SetFlitObserver(s *obs.FlitScope) {
	n.obs = s
	if s == nil {
		n.gauges = nil
		n.linkObs = nil
		return
	}
	vcs := n.cfg.VirtualChannels
	n.gauges = s.Gauges(vcs)
	if n.bufferedVC == nil {
		n.bufferedVC = make([]int, vcs)
	}
	n.linkObs = make([]*obs.Counter, len(n.hop))
	for pp := range n.linkObs {
		r := n.portRtr[pp]
		n.linkObs[pp] = s.LinkCounter(int(r), pp-int(n.portBase[r]))
	}
}

// SetCycleListener installs (or clears, with nil) a callback invoked after
// the mutations of every advanced cycle: once per stepped cycle, and once
// per idle fast-forward jump, with the cycle the clock landed on. Skipped
// cycles mutate nothing, so a listener sampling state on boundaries inside
// the jump would read exactly the values it reads at the jump's end — the
// property that makes timeline windows byte-identical across engines.
func (n *Net) SetCycleListener(fn func(cycle uint64)) { n.onCycle = fn }

// noteCycle publishes the occupancy gauges and fires the cycle listener.
// Called (via its inlined guard in Tick/TickUntilQuiet) after every
// stepped cycle and after every fast-forward jump.
func (n *Net) noteCycle() {
	if g := n.gauges; g != nil {
		g.InflightWorms.Set(int64(n.inflight))
		g.InjectBacklog.Set(int64(n.queuedWorms))
		g.RecvqPackets.Set(int64(n.recvqTotal))
		g.BufferedFlits.Set(int64(n.buffered))
		for vc, l := range g.VCFlits {
			l.Set(int64(n.bufferedVC[vc]))
		}
	}
	if n.onCycle != nil {
		n.onCycle(n.cycle)
	}
}

// observing reports whether noteCycle has any work to do.
func (n *Net) observing() bool { return n.gauges != nil || n.onCycle != nil }

// wormFlits computes a worm's length: head + payload + tail, padded in CR
// mode to the deterministic path length so the worm spans source to
// destination (the tail's acceptance is then an end-to-end acknowledgement).
func (n *Net) wormFlits(p network.Packet) int {
	flits := 2 + len(p.Data)
	if n.cfg.Mode == CR {
		if path := topology.DeterministicPath(n.cfg.Topology, p.Src, p.Dst); path != nil {
			if need := len(path) + 2; need > flits {
				n.stats.PadFlits += uint64(need - flits)
				flits = need
			}
		}
	}
	return flits
}

// TryRecv implements network.Network.
func (n *Net) TryRecv(node int) (network.Packet, bool) {
	if node < 0 || node >= n.Nodes() {
		return network.Packet{}, false
	}
	p, ok := n.recvq[node].pop()
	if !ok {
		return network.Packet{}, false
	}
	n.recvqTotal--
	n.stats.Delivered++
	return p, true
}

// Pending implements network.Network: worms not yet fully delivered plus
// undelivered packets. The maintained counters make it O(1), so polling it
// in a drain loop costs nothing even on large topologies.
func (n *Net) Pending() int {
	return n.inflight + n.queuedWorms + n.recvqTotal
}

// getWorm takes a worm from the pool, or allocates when it is empty. The
// caller overwrites every field.
func (n *Net) getWorm() *worm {
	if m := len(n.wormPool); m > 0 {
		w := n.wormPool[m-1]
		n.wormPool[m-1] = nil
		n.wormPool = n.wormPool[:m-1]
		return w
	}
	return new(worm)
}

// putWorm returns a finished worm to the pool, dropping its payload
// reference so a delivered buffer is not pinned by the pool.
func (n *Net) putWorm(w *worm) {
	w.packet = network.Packet{}
	n.wormPool = append(n.wormPool, w)
}

// getWords takes a payload buffer of the given length from the pool. All
// pooled buffers were allocated at PacketWords capacity, so any valid
// payload length fits.
func (n *Net) getWords(need int) []network.Word {
	if m := len(n.wordPool); m > 0 {
		buf := n.wordPool[m-1]
		n.wordPool[m-1] = nil
		n.wordPool = n.wordPool[:m-1]
		return buf[:need]
	}
	return make([]network.Word, need, n.cfg.PacketWords)
}

// putWords reclaims a payload buffer. Only undelivered payloads come back:
// a delivered packet's buffer belongs to the receiver.
func (n *Net) putWords(buf []network.Word) {
	if cap(buf) < n.cfg.PacketWords {
		return // not one of ours
	}
	n.wordPool = append(n.wordPool, buf[:0])
}

// Stats implements network.Network.
func (n *Net) Stats() network.Stats { return n.stats.Stats }

// FlitStats returns the extended counters.
func (n *Net) FlitStats() Stats { return n.stats }

// Cycle returns the current simulated cycle.
func (n *Net) Cycle() uint64 { return n.cycle }

// Close is a no-op kept for callers written against an earlier engine
// that owned worker goroutines; the serial engine holds no resources.
func (n *Net) Close() {}

// IdleSkipped returns how many cycles the engine fast-forwarded over
// instead of stepping individually. Skipped cycles are still counted in
// Stats.Cycles — the simulated clock is unchanged; only the host work to
// advance it is elided — so this is a measure of saved work, not of time.
func (n *Net) IdleSkipped() uint64 { return n.idleSkipped }

var _ network.Network = (*Net)(nil)
