package network

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// TestPacketPathAllocs pins the steady-state cost of a packet through each
// substrate: the payload copy Inject makes is the only allocation.
func TestPacketPathAllocs(t *testing.T) {
	cases := []struct {
		name  string
		net   Network
		burst int // packets injected before receiving them all
	}{
		{"cm5-inorder", MustCM5Net(CM5Config{Nodes: 2}), 1},
		{"cm5-pairswap", MustCM5Net(CM5Config{Nodes: 2, Reorder: PairSwap()}), 2},
		{"cm5-window", MustCM5Net(CM5Config{Nodes: 2, Reorder: WindowShuffle(4, 1)}), 4},
		{"cr", MustCRNet(CRConfig{Nodes: 2}), 1},
	}
	payload := []Word{1, 2, 3, 4}
	for _, c := range cases {
		round := func() {
			for i := 0; i < c.burst; i++ {
				if err := c.net.Inject(Packet{Src: 0, Dst: 1, Data: payload}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < c.burst; i++ {
				if _, ok := c.net.TryRecv(1); !ok {
					t.Fatal("lost packet")
				}
			}
		}
		round() // first use creates the flow and sizes the queue
		perPacket := testing.AllocsPerRun(200, round) / float64(c.burst)
		if perPacket > 1 {
			t.Errorf("%s: %.2f allocations per packet, want <= 1 (the payload copy)", c.name, perPacket)
		}
	}
}

// TestRingFIFO drives the ring against a slice queue through wraparound
// and repeated growth, and checks that popped slots drop their payload.
func TestRingFIFO(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var r ring
	var ref []Packet
	next := Word(0)
	for step := 0; step < 5000; step++ {
		// Phases of net growth and net shrinkage make the head wrap
		// around at several capacities.
		pushBias := 6
		if step/500%2 == 1 {
			pushBias = 3
		}
		if rng.Intn(10) < pushBias {
			p := Packet{Head: next, Data: []Word{next}}
			next++
			r.push(&p)
			ref = append(ref, p)
		} else if len(ref) > 0 {
			slot := r.head
			got := r.pop()
			if !reflect.DeepEqual(got, ref[0]) {
				t.Fatalf("step %d: popped %+v, want %+v", step, got, ref[0])
			}
			ref = ref[1:]
			if !reflect.DeepEqual(r.buf[slot], Packet{}) {
				t.Fatalf("step %d: popped slot not cleared", step)
			}
		}
		if r.len() != len(ref) {
			t.Fatalf("step %d: len %d, want %d", step, r.len(), len(ref))
		}
	}
	if len(r.buf)&(len(r.buf)-1) != 0 {
		t.Errorf("capacity %d is not a power of two", len(r.buf))
	}
}

// refCM5 is the CM5Net queueing model written with plain slice queues: the
// reference the ring-backed network must match packet for packet.
type refCM5 struct {
	capacity int
	policy   ReorderPolicy
	queues   [][]Packet
	flows    map[[2]int]*refFlow
	byDst    [][]*refFlow
	seq      map[[2]int]uint64
}

type refFlow struct {
	r    Reorderer
	held int
}

func newRefCM5(nodes, capacity int, policy ReorderPolicy) *refCM5 {
	return &refCM5{
		capacity: capacity, policy: policy,
		queues: make([][]Packet, nodes), byDst: make([][]*refFlow, nodes),
		flows: map[[2]int]*refFlow{}, seq: map[[2]int]uint64{},
	}
}

func (n *refCM5) inFlight(dst int) int {
	count := len(n.queues[dst])
	for _, f := range n.byDst[dst] {
		count += f.held
	}
	return count
}

func (n *refCM5) inject(p Packet) error {
	if n.capacity > 0 && n.inFlight(p.Dst) >= n.capacity {
		return ErrBackpressure
	}
	key := [2]int{p.Src, p.Dst}
	f := n.flows[key]
	if f == nil {
		f = &refFlow{r: n.policy()}
		n.flows[key] = f
		n.byDst[p.Dst] = append(n.byDst[p.Dst], f)
	}
	p.flow = n.seq[key]
	n.seq[key]++
	released := f.r.Push(nil, p)
	f.held += 1 - len(released)
	n.queues[p.Dst] = append(n.queues[p.Dst], released...)
	return nil
}

func (n *refCM5) tryRecv(node int) (Packet, bool) {
	if len(n.queues[node]) == 0 {
		for _, f := range n.byDst[node] {
			if f.held > 0 {
				released := f.r.Flush(nil)
				f.held -= len(released)
				n.queues[node] = append(n.queues[node], released...)
			}
		}
	}
	if len(n.queues[node]) == 0 {
		return Packet{}, false
	}
	p := n.queues[node][0]
	n.queues[node] = n.queues[node][1:]
	return p, true
}

// TestCM5QueuesMatchSliceReference runs random traffic with finite
// capacity through CM5Net and the slice-queue reference under every
// reorder policy: the same injections are refused and the same packets
// come out in the same order, including those released by Flush.
func TestCM5QueuesMatchSliceReference(t *testing.T) {
	policies := map[string]func() ReorderPolicy{
		"inorder":  InOrder,
		"pairswap": PairSwap,
		"window":   func() ReorderPolicy { return WindowShuffle(5, 3) },
	}
	for name, policy := range policies {
		const nodes = 3
		net := MustCM5Net(CM5Config{Nodes: nodes, Capacity: 11, Reorder: policy()})
		ref := newRefCM5(nodes, 11, policy())
		rng := rand.New(rand.NewSource(7))
		for step := 0; step < 20000; step++ {
			src, dst := rng.Intn(nodes), rng.Intn(nodes)
			if rng.Intn(100) < 55 {
				p := Packet{Src: src, Dst: dst, Head: Word(step), Data: []Word{Word(step)}}
				got, want := net.Inject(p), ref.inject(p)
				if !errors.Is(got, want) {
					t.Fatalf("%s step %d: Inject = %v, reference %v", name, step, got, want)
				}
				continue
			}
			got, gotOK := net.TryRecv(dst)
			want, wantOK := ref.tryRecv(dst)
			if gotOK != wantOK || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s step %d: TryRecv = %+v %v, reference %+v %v", name, step, got, gotOK, want, wantOK)
			}
			if d := net.QueueDepth(dst); d != ref.inFlight(dst) {
				t.Fatalf("%s step %d: depth %d, reference %d", name, step, d, ref.inFlight(dst))
			}
		}
		if net.Stats().Backpressure == 0 {
			t.Errorf("%s: capacity never backpressured", name)
		}
	}
}
