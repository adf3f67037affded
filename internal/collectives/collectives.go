// Package collectives builds the higher-level communication operations of
// the paper's Section 2.1 — the services "message passing (C or FORTRAN)"
// programs and compilers expect — on top of the messaging layers:
// broadcast, scatter, gather, all-reduce, and barrier.
//
// Each collective is implemented twice over the same API surface: small
// control messages travel as single-packet active messages (cheap but, as
// the paper stresses, unordered and unreliable on the CM-5 substrate) and
// bulk payloads as finite-sequence transfers (reliable, overflow-safe,
// paying the Table 2 costs). Because every underlying primitive charges
// the calibrated schedule, a collective's end-to-end software cost is the
// paper's cost model composed over the communication pattern — which the
// tests check against closed forms.
package collectives

import (
	"errors"
	"fmt"

	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/ctrlnet"
	"msglayer/internal/machine"
	"msglayer/internal/network"
	"msglayer/internal/protocols"
)

// Protocol events counted on the node gauges.
var (
	evCollectivesHwreduce = cost.NewEvent("collectives.hwreduce")
	evCollectivesHwscan   = cost.NewEvent("collectives.hwscan")
)

// Handler identifiers used by the collectives; applications sharing an
// endpoint must avoid this range.
const (
	hBarrier   cmam.HandlerID = 30
	hReduceVal cmam.HandlerID = 31
	hBcastCtl  cmam.HandlerID = 32
)

// Comm is one node's participation in a communicator spanning all nodes of
// a machine. All nodes must construct their Comm before any collective
// starts, and all nodes must call the same collectives in the same order
// (MPI-style).
type Comm struct {
	ep     *cmam.Endpoint
	finite *protocols.Finite
	rank   int
	size   int

	// Barrier state.
	barrierSeen  map[uint32]int
	barrierEpoch uint32
	barrierAcked map[uint32]bool

	// Reduction state.
	reduceVals  map[uint32][]network.Word
	reduceEpoch uint32

	ctrl *ctrlnet.Net // optional hardware combining tree

	// Bulk reception state.
	bulk     map[uint32][]network.Word
	bulkCtl  map[uint32]bool
	bcastGen uint32

	err error
}

// New attaches a communicator to a node. The finite-sequence service is
// created internally; the endpoint must not already have one.
func New(ep *cmam.Endpoint, machineSize int) (*Comm, error) {
	if machineSize < 1 {
		return nil, fmt.Errorf("collectives: communicator over %d nodes", machineSize)
	}
	c := &Comm{
		ep:           ep,
		finite:       protocols.NewFinite(ep),
		rank:         ep.Node().ID,
		size:         machineSize,
		barrierSeen:  make(map[uint32]int),
		barrierAcked: make(map[uint32]bool),
		reduceVals:   make(map[uint32][]network.Word),
		bulk:         make(map[uint32][]network.Word),
		bulkCtl:      make(map[uint32]bool),
	}
	c.finite.OnReceive = func(src int, data []network.Word) {
		if len(data) < 1 {
			c.err = errors.New("collectives: bulk message without generation word")
			return
		}
		c.bulk[uint32(data[0])] = data[1:]
	}
	ep.Register(hBarrier, c.handleBarrier)
	ep.Register(hReduceVal, c.handleReduceVal)
	ep.Register(hBcastCtl, c.handleBcastCtl)
	return c, nil
}

// Rank returns this node's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

// Pump advances protocol work; the collectives' wait loops call it, and
// idle nodes must keep calling it for others to progress. When a control
// network is attached, pumping also advances the shared combining tree.
func (c *Comm) Pump() error {
	if err := c.finite.Pump(); err != nil {
		return err
	}
	if c.ctrl != nil {
		c.ctrl.Tick(1)
	}
	if c.err != nil {
		err := c.err
		c.err = nil
		return err
	}
	return nil
}

// Stepper adapts the communicator to machine.Run, finishing when done
// reports true.
func (c *Comm) Stepper(done func() bool) machine.Stepper {
	return machine.StepFunc(func() (bool, error) {
		if err := c.Pump(); err != nil {
			return false, err
		}
		return done(), nil
	})
}

// --- Barrier ---------------------------------------------------------

// recvCharge applies the Table 1 single-packet reception cost; every
// control message a collective receives is one polled active message.
func (c *Comm) recvCharge() {
	node := c.ep.Node()
	node.Charge(cost.Base, node.Sched.RecvSingle)
}

// handleBarrier counts arrivals at the root and releases at the leaves.
func (c *Comm) handleBarrier(src int, args []network.Word) {
	c.recvCharge()
	if len(args) != 2 {
		c.err = fmt.Errorf("collectives: malformed barrier message from %d", src)
		return
	}
	epoch := uint32(args[0])
	switch args[1] {
	case 0: // arrival at root
		c.barrierSeen[epoch]++
	case 1: // release from root
		c.barrierAcked[epoch] = true
	default:
		c.err = fmt.Errorf("collectives: bad barrier phase %d", args[1])
	}
}

// BarrierBegin initiates this node's participation in the next barrier and
// returns a completion predicate. Root is rank 0. The classic
// arrive-then-release pattern: every non-root sends an arrival active
// message to the root; when the root has all arrivals it broadcasts a
// release.
func (c *Comm) BarrierBegin() (done func() bool, err error) {
	epoch := c.barrierEpoch
	c.barrierEpoch++
	if c.rank == 0 {
		c.barrierSeen[epoch]++ // the root has arrived
		released := false
		return func() bool {
			if !released && c.barrierSeen[epoch] == c.size {
				for peer := 1; peer < c.size; peer++ {
					if err := c.ep.AM4(peer, hBarrier, network.Word(epoch), 1); err != nil {
						c.err = err
						return false
					}
				}
				released = true
				delete(c.barrierSeen, epoch)
			}
			return released
		}, nil
	}
	if err := c.ep.AM4(0, hBarrier, network.Word(epoch), 0); err != nil {
		return nil, err
	}
	passed := false
	return func() bool {
		if passed {
			return true
		}
		if c.barrierAcked[epoch] {
			delete(c.barrierAcked, epoch)
			passed = true
		}
		return passed
	}, nil
}

// --- Reduction -------------------------------------------------------

// Op is a reduction operator over words.
type Op func(a, b network.Word) network.Word

// Sum adds.
func Sum(a, b network.Word) network.Word { return a + b }

// Max keeps the larger word.
func Max(a, b network.Word) network.Word {
	if a > b {
		return a
	}
	return b
}

// handleReduceVal collects contributions at the root.
func (c *Comm) handleReduceVal(src int, args []network.Word) {
	c.recvCharge()
	if len(args) != 2 {
		c.err = fmt.Errorf("collectives: malformed reduce message from %d", src)
		return
	}
	epoch := uint32(args[0])
	c.reduceVals[epoch] = append(c.reduceVals[epoch], args[1])
}

// ReduceBegin contributes a value to an all-reduce and returns a predicate
// that reports completion and yields the result. Contributions travel as
// single-packet active messages to the root; the result returns the same
// way — 2(size-1) Table 1 round trips for the whole machine.
func (c *Comm) ReduceBegin(value network.Word, op Op) (func() (network.Word, bool), error) {
	epoch := c.reduceEpoch
	c.reduceEpoch++
	resultKey := epoch | 1<<31

	if c.rank == 0 {
		c.reduceVals[epoch] = append(c.reduceVals[epoch], value)
		broadcast := false
		return func() (network.Word, bool) {
			vals := c.reduceVals[epoch]
			if len(vals) < c.size {
				return 0, false
			}
			acc := vals[0]
			for _, v := range vals[1:] {
				acc = op(acc, v)
			}
			if !broadcast {
				for peer := 1; peer < c.size; peer++ {
					if err := c.ep.AM4(peer, hReduceVal, network.Word(resultKey), acc); err != nil {
						c.err = err
						return 0, false
					}
				}
				broadcast = true
			}
			return acc, true
		}, nil
	}
	if err := c.ep.AM4(0, hReduceVal, network.Word(epoch), value); err != nil {
		return nil, err
	}
	var result network.Word
	have := false
	return func() (network.Word, bool) {
		if have {
			return result, true
		}
		vals := c.reduceVals[resultKey]
		if len(vals) == 0 {
			return 0, false
		}
		result = vals[0]
		have = true
		delete(c.reduceVals, resultKey)
		return result, true
	}, nil
}

// --- Broadcast / scatter / gather ------------------------------------

// handleBcastCtl marks a bulk generation complete at a leaf.
func (c *Comm) handleBcastCtl(src int, args []network.Word) {
	c.recvCharge()
	if len(args) != 1 {
		c.err = fmt.Errorf("collectives: malformed control message from %d", src)
		return
	}
	c.bulkCtl[uint32(args[0])] = true
}

// BroadcastBegin (root side) sends data to every other node as concurrent
// finite-sequence transfers; non-roots call BroadcastRecv. Returns a
// completion predicate. Generation numbers distinguish successive bulk
// collectives.
func (c *Comm) BroadcastBegin(data []network.Word) (func() bool, error) {
	if c.rank != 0 {
		return nil, errors.New("collectives: BroadcastBegin on non-root")
	}
	gen := c.bcastGen
	c.bcastGen++
	payload := append([]network.Word{network.Word(gen)}, data...)
	transfers := make([]*protocols.FiniteTransfer, 0, c.size-1)
	for peer := 1; peer < c.size; peer++ {
		tr, err := c.finite.Start(peer, payload)
		if err != nil {
			return nil, err
		}
		transfers = append(transfers, tr)
	}
	return func() bool {
		for _, tr := range transfers {
			if !tr.Done() {
				return false
			}
		}
		return true
	}, nil
}

// BroadcastRecv (leaf side) returns a predicate yielding the payload of
// the next broadcast generation this node receives.
func (c *Comm) BroadcastRecv() func() ([]network.Word, bool) {
	gen := c.bcastGen
	c.bcastGen++
	var cached []network.Word
	have := false
	return func() ([]network.Word, bool) {
		if have {
			return cached, true
		}
		data, ok := c.bulk[gen]
		if !ok {
			return nil, false
		}
		delete(c.bulk, gen)
		cached = data
		have = true
		return cached, true
	}
}

// ScatterBegin (root) sends the i-th block to rank i; block i = 0 stays
// local and is returned immediately through the same predicate shape.
func (c *Comm) ScatterBegin(blocks [][]network.Word) (func() ([]network.Word, bool), error) {
	if c.rank != 0 {
		return nil, errors.New("collectives: ScatterBegin on non-root")
	}
	if len(blocks) != c.size {
		return nil, fmt.Errorf("collectives: scatter of %d blocks over %d ranks", len(blocks), c.size)
	}
	gen := c.bcastGen
	c.bcastGen++
	transfers := make([]*protocols.FiniteTransfer, 0, c.size-1)
	for peer := 1; peer < c.size; peer++ {
		payload := append([]network.Word{network.Word(gen)}, blocks[peer]...)
		tr, err := c.finite.Start(peer, payload)
		if err != nil {
			return nil, err
		}
		transfers = append(transfers, tr)
	}
	local := blocks[0]
	return func() ([]network.Word, bool) {
		for _, tr := range transfers {
			if !tr.Done() {
				return nil, false
			}
		}
		return local, true
	}, nil
}

// GatherBegin (leaf) contributes this node's block toward the root.
func (c *Comm) GatherBegin(block []network.Word) (func() bool, error) {
	if c.rank == 0 {
		return nil, errors.New("collectives: GatherBegin on root; use GatherRecv")
	}
	gen := c.bcastGen
	c.bcastGen++
	payload := append([]network.Word{network.Word(gen)}, block...)
	tr, err := c.finite.Start(0, payload)
	if err != nil {
		return nil, err
	}
	return tr.Done, nil
}

// GatherRecv (root) returns a predicate yielding all size-1 remote blocks
// (indexed by source rank) once they have arrived. The root's own block is
// the caller's to place.
func (c *Comm) GatherRecv() func() (map[int][]network.Word, bool) {
	gen := c.bcastGen
	c.bcastGen++
	collected := make(map[int][]network.Word)
	// Rebind the bulk sink to capture sources for this generation: the
	// default OnReceive drops the source, so gather installs its own.
	prev := c.finite.OnReceive
	c.finite.OnReceive = func(src int, data []network.Word) {
		if len(data) >= 1 && uint32(data[0]) == gen {
			collected[src] = data[1:]
			return
		}
		prev(src, data)
	}
	have := false
	return func() (map[int][]network.Word, bool) {
		if have {
			return collected, true
		}
		if len(collected) < c.size-1 {
			return nil, false
		}
		c.finite.OnReceive = prev
		have = true
		return collected, true
	}
}

// --- Hardware collectives (control network) ---------------------------

// Control-network access costs: contributing is two device stores plus
// setup; reading the combined result is a status load and test. These are
// the whole software cost of a hardware collective — the control network
// is to software reductions what Compressionless Routing is to the
// messaging layer.
var (
	hwContribute = cost.Items{
		{Cat: cost.Reg, Sub: cost.SubNISetup, N: 2},
		{Cat: cost.Dev, Sub: cost.SubNIWrite, N: 2},
	}
	hwResultPoll = cost.Items{
		{Cat: cost.Dev, Sub: cost.SubNIStatus, N: 1},
		{Cat: cost.Reg, Sub: cost.SubNIStatus, N: 2},
	}
)

// AttachControlNetwork gives this node access to a shared hardware
// combining tree (a CM-5-style control network). The network must span the
// same nodes as the communicator. HWReduceBegin and HWBarrierBegin become
// available; Pump ticks the shared tree.
func (c *Comm) AttachControlNetwork(cn *ctrlnet.Net) error {
	if cn.Nodes() != c.size {
		return fmt.Errorf("collectives: control network spans %d nodes, communicator %d", cn.Nodes(), c.size)
	}
	c.ctrl = cn
	return nil
}

// HWReduceBegin contributes to a hardware all-reduce on the control
// network. Every node pays a handful of device accesses instead of the
// software path's 2(size-1) single-packet round trips.
func (c *Comm) HWReduceBegin(value network.Word, op ctrlnet.Op) (func() (network.Word, bool), error) {
	if c.ctrl == nil {
		return nil, errors.New("collectives: no control network attached")
	}
	node := c.ep.Node()
	node.Charge(cost.Base, hwContribute)
	if err := c.ctrl.Contribute(c.rank, op, uint32(value)); err != nil {
		return nil, err
	}
	node.Event(evCollectivesHwreduce)
	have := false
	var result network.Word
	return func() (network.Word, bool) {
		if have {
			return result, true
		}
		v, ok := c.ctrl.Result(c.rank)
		if !ok {
			return 0, false
		}
		node.Charge(cost.Base, hwResultPoll)
		result = network.Word(v)
		have = true
		return result, true
	}, nil
}

// HWBarrierBegin synchronizes through the control network.
func (c *Comm) HWBarrierBegin() (func() bool, error) {
	pred, err := c.HWReduceBegin(1, ctrlnet.OpAnd)
	if err != nil {
		return nil, err
	}
	return func() bool {
		_, ok := pred()
		return ok
	}, nil
}

// HWScanBegin contributes to a hardware parallel-prefix (scan) on the
// control network: rank i receives op(v_0..v_i). Scans were a signature
// CM-5 control-network service (enumeration, load balancing, parallel
// allocation all build on them).
func (c *Comm) HWScanBegin(value network.Word, op ctrlnet.Op) (func() (network.Word, bool), error) {
	if c.ctrl == nil {
		return nil, errors.New("collectives: no control network attached")
	}
	node := c.ep.Node()
	node.Charge(cost.Base, hwContribute)
	if err := c.ctrl.ScanContribute(c.rank, op, uint32(value)); err != nil {
		return nil, err
	}
	node.Event(evCollectivesHwscan)
	have := false
	var result network.Word
	return func() (network.Word, bool) {
		if have {
			return result, true
		}
		v, ok := c.ctrl.ScanResult(c.rank)
		if !ok {
			return 0, false
		}
		node.Charge(cost.Base, hwResultPoll)
		result = network.Word(v)
		have = true
		return result, true
	}, nil
}
