package network

// ring is a growable FIFO of packets. Popped slots are zeroed (dropping the
// payload reference) and reused, so a queue in steady state allocates
// nothing; when full it doubles, copying its packets once.
type ring struct {
	buf  []Packet // len(buf) is zero or a power of two
	head int      // index of the oldest packet
	n    int      // packets queued
}

// len returns the number of queued packets.
func (r *ring) len() int { return r.n }

// push appends a packet at the tail.
func (r *ring) push(p *Packet) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = *p
	r.n++
}

// pop removes and returns the oldest packet; the ring must not be empty.
func (r *ring) pop() Packet {
	slot := &r.buf[r.head]
	p := *slot
	*slot = Packet{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return p
}

// grow doubles the capacity, unwrapping the queued packets to the front.
func (r *ring) grow() {
	buf := make([]Packet, max(8, 2*len(r.buf)))
	k := copy(buf, r.buf[r.head:])
	copy(buf[k:], r.buf[:r.head])
	r.buf, r.head = buf, 0
}
