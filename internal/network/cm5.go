package network

import (
	"fmt"

	"msglayer/internal/obs"
)

// CM5Config configures a CM5Net.
type CM5Config struct {
	// Nodes is the number of attached processing nodes (required).
	Nodes int
	// PacketWords is the payload capacity of a hardware packet; the CM-5
	// carries four data words. Defaults to 4.
	PacketWords int
	// Reorder chooses the per-flow delivery-order model. Defaults to
	// InOrder (no reordering).
	Reorder ReorderPolicy
	// Faults injects packet corruption and loss. Defaults to NoFaults.
	Faults FaultPlan
	// Capacity bounds the packets buffered toward any one destination,
	// modeling finite network and node buffering. Zero means unbounded.
	Capacity int
}

type flowState struct {
	reorderer Reorderer // nil for in-order flows, which queue directly
	nextSeq   uint64
	held      int // packets inside the reorderer
}

// CM5Net is the behavioral model of the CM-5 data network: arbitrary
// delivery order within a flow (per the configured policy), finite
// buffering, and fault detection without correction.
type CM5Net struct {
	cfg     CM5Config
	queues  []ring         // deliverable packets per destination
	flows   []*flowState   // per flow, indexed src*Nodes+dst; nil until used
	byDst   [][]*flowState // flows targeting each destination, for flushing
	faults  FaultPlan      // cfg.Faults, or nil when it is NoFaults
	scratch []Packet       // packets a reorderer released, reused
	stats   Stats
	obs     *obs.NetScope
}

// NewCM5Net constructs the network.
func NewCM5Net(cfg CM5Config) (*CM5Net, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("network: CM5Net needs >= 1 node, got %d", cfg.Nodes)
	}
	if cfg.PacketWords == 0 {
		cfg.PacketWords = 4
	}
	if cfg.PacketWords < 1 {
		return nil, fmt.Errorf("network: packet payload must be positive, got %d", cfg.PacketWords)
	}
	if cfg.Reorder == nil {
		cfg.Reorder = InOrder()
	}
	if cfg.Faults == nil {
		cfg.Faults = NoFaults{}
	}
	faults := cfg.Faults
	if _, ok := faults.(NoFaults); ok {
		faults = nil
	}
	return &CM5Net{
		cfg:    cfg,
		queues: make([]ring, cfg.Nodes),
		flows:  make([]*flowState, cfg.Nodes*cfg.Nodes),
		byDst:  make([][]*flowState, cfg.Nodes),
		faults: faults,
	}, nil
}

// MustCM5Net is NewCM5Net that panics on bad configuration.
func MustCM5Net(cfg CM5Config) *CM5Net {
	n, err := NewCM5Net(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Name implements Network.
func (n *CM5Net) Name() string { return "cm5" }

// SetObserver implements obs.NetInstrumentable.
func (n *CM5Net) SetObserver(s *obs.NetScope) { n.obs = s }

// QueueDepth implements obs.DepthProber: packets buffered toward a node,
// queued or held in reorderers.
func (n *CM5Net) QueueDepth(node int) int {
	if node < 0 || node >= n.cfg.Nodes {
		return 0
	}
	return n.inFlight(node)
}

// Nodes implements Network.
func (n *CM5Net) Nodes() int { return n.cfg.Nodes }

// PacketWords implements Network.
func (n *CM5Net) PacketWords() int { return n.cfg.PacketWords }

// inFlight counts packets buffered toward a destination, queued or held.
func (n *CM5Net) inFlight(dst int) int {
	count := n.queues[dst].len()
	for _, f := range n.byDst[dst] {
		count += f.held
	}
	return count
}

// Inject implements Network.
func (n *CM5Net) Inject(p Packet) error {
	if err := validate(&p, n.cfg.Nodes, n.cfg.PacketWords); err != nil {
		return err
	}
	if n.cfg.Capacity > 0 && n.inFlight(p.Dst) >= n.cfg.Capacity {
		n.stats.Backpressure++
		n.obs.Backpressure(p.Dst)
		return ErrBackpressure
	}

	flow := p.Src*n.cfg.Nodes + p.Dst
	f := n.flows[flow]
	if f == nil {
		f = &flowState{reorderer: n.cfg.Reorder()}
		if _, ok := f.reorderer.(inOrder); ok {
			f.reorderer = nil
		}
		n.flows[flow] = f
		n.byDst[p.Dst] = append(n.byDst[p.Dst], f)
	}
	p.flow = f.nextSeq
	f.nextSeq++
	p.Data = clonePayload(p.Data)
	n.stats.Injected++
	n.obs.Injected()

	if n.faults != nil {
		switch n.faults.Judge(p) {
		case Drop:
			n.stats.Dropped++
			n.obs.Dropped(p.Dst)
			return nil // the network ate it; nobody is told
		case Corrupt:
			p.Corrupt = true
		}
	}

	if f.reorderer == nil {
		n.queues[p.Dst].push(&p)
		return nil
	}
	released := f.reorderer.Push(n.scratch[:0], p)
	f.held += 1 - len(released)
	n.release(p.Dst, released)
	return nil
}

// release queues packets a reorderer let go toward dst, then clears them
// from the scratch slice so it keeps no payload alive.
func (n *CM5Net) release(dst int, released []Packet) {
	for i := range released {
		n.queues[dst].push(&released[i])
	}
	clear(released)
	n.scratch = released[:0]
}

// TryRecv implements Network. When a destination's queue is empty, any
// packets still held inside reorderers for that destination are flushed —
// the adaptive paths eventually converge.
func (n *CM5Net) TryRecv(node int) (Packet, bool) {
	if node < 0 || node >= n.cfg.Nodes {
		return Packet{}, false
	}
	q := &n.queues[node]
	if q.len() == 0 {
		for _, f := range n.byDst[node] {
			if f.held > 0 {
				released := f.reorderer.Flush(n.scratch[:0])
				f.held -= len(released)
				n.release(node, released)
			}
		}
	}
	if q.len() == 0 {
		return Packet{}, false
	}
	p := q.pop()
	n.stats.Delivered++
	n.obs.Delivered()
	if p.Corrupt {
		n.stats.CorruptSeen++
		n.obs.Corrupt(node)
	}
	return p, true
}

// Pending implements Network.
func (n *CM5Net) Pending() int {
	total := 0
	for dst := range n.queues {
		total += n.inFlight(dst)
	}
	return total
}

// Stats implements Network.
func (n *CM5Net) Stats() Stats { return n.stats }

var _ Network = (*CM5Net)(nil)
