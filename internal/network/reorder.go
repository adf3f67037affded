package network

import "math/rand"

// Reorderer decides the delivery order of packets within one
// (source, destination) flow, modeling the arbitrary delivery order of
// multipath networks. Implementations are driven per flow: Push accepts the
// next injected packet and appends any packets that become deliverable (in
// delivery order) to out; Flush appends anything still held when the flow
// goes idle. Both return the extended slice, so the network can pass one
// reused scratch slice and a steady-state flow allocates nothing.
type Reorderer interface {
	Push(out []Packet, p Packet) []Packet
	Flush(out []Packet) []Packet
}

// ReorderPolicy constructs a fresh Reorderer for each flow.
type ReorderPolicy func() Reorderer

// InOrder delivers every flow in injection order (a single-path network).
// Substrates recognise it and queue such flows directly.
func InOrder() ReorderPolicy {
	return func() Reorderer { return inOrder{} }
}

type inOrder struct{}

func (inOrder) Push(out []Packet, p Packet) []Packet { return append(out, p) }
func (inOrder) Flush(out []Packet) []Packet          { return out }

// PairSwap delivers each consecutive pair of packets swapped
// (1, 0, 3, 2, ...), so exactly half of a flow's packets arrive out of
// order — the paper's Table 2 assumption for the indefinite-sequence
// protocol, made deterministic.
func PairSwap() ReorderPolicy {
	return func() Reorderer { return &pairSwap{} }
}

type pairSwap struct {
	held    Packet
	hasHeld bool
}

func (s *pairSwap) Push(out []Packet, p Packet) []Packet {
	if !s.hasHeld {
		s.held, s.hasHeld = p, true
		return out
	}
	out = append(out, p, s.held)
	s.held, s.hasHeld = Packet{}, false
	return out
}

func (s *pairSwap) Flush(out []Packet) []Packet {
	if !s.hasHeld {
		return out
	}
	out = append(out, s.held)
	s.held, s.hasHeld = Packet{}, false
	return out
}

// WindowShuffle holds up to window packets per flow and releases them in a
// seeded pseudo-random order, modeling adaptive routing whose path spread is
// bounded by the network diameter. The same seed always produces the same
// delivery order.
func WindowShuffle(window int, seed int64) ReorderPolicy {
	if window < 1 {
		window = 1
	}
	return func() Reorderer {
		s := &windowShuffle{window: window, rng: rand.New(rand.NewSource(seed))}
		s.swap = func(i, j int) { s.held[i], s.held[j] = s.held[j], s.held[i] }
		return s
	}
}

type windowShuffle struct {
	window int
	rng    *rand.Rand
	held   []Packet // reused across windows
	swap   func(i, j int)
}

func (s *windowShuffle) Push(out []Packet, p Packet) []Packet {
	s.held = append(s.held, p)
	if len(s.held) < s.window {
		return out
	}
	return s.release(out)
}

func (s *windowShuffle) Flush(out []Packet) []Packet { return s.release(out) }

func (s *windowShuffle) release(out []Packet) []Packet {
	s.rng.Shuffle(len(s.held), s.swap)
	out = append(out, s.held...)
	clear(s.held)
	s.held = s.held[:0]
	return out
}
