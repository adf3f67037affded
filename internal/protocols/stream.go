package protocols

import (
	"errors"
	"fmt"

	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/network"
)

// Protocol events counted on the node gauges.
var (
	evStreamSrcbuffer    = cost.NewEvent("stream.srcbuffer")
	evStreamBackpressure = cost.NewEvent("stream.backpressure")
	evStreamPacketSent   = cost.NewEvent("stream.packet.sent")
	evStreamTimeout      = cost.NewEvent("stream.timeout")
	evStreamRetransmit   = cost.NewEvent("stream.retransmit")
	evStreamInorder      = cost.NewEvent("stream.inorder")
	evStreamDrain        = cost.NewEvent("stream.drain")
	evStreamDuplicate    = cost.NewEvent("stream.duplicate")
	evStreamAckSent      = cost.NewEvent("stream.ack.sent")
	evStreamOutoforder   = cost.NewEvent("stream.outoforder")
	evStreamNackSent     = cost.NewEvent("stream.nack.sent")
	evStreamAckRecv      = cost.NewEvent("stream.ack.recv")
	evStreamNackRecv     = cost.NewEvent("stream.nack.recv")
)

// Stream head-word packing: an 8-bit channel and a 24-bit sequence number.
const (
	streamSeqBits = 24
	streamSeqMask = 1<<streamSeqBits - 1
	maxStreamSeq  = streamSeqMask
)

// ErrWindowFull reports a send refused because the connection already has
// MaxUnacked packets awaiting acknowledgement; retry after pumping.
var ErrWindowFull = errors.New("protocols: stream send window full")

// StreamConfig tunes the indefinite-sequence protocol.
type StreamConfig struct {
	// MaxUnacked bounds the packets a connection may have in flight
	// awaiting acknowledgement — the sender-side half of end-to-end flow
	// control, limiting how much source buffering and receiver reorder
	// space a channel can consume. Zero means unbounded (the paper's
	// Table 2 configuration).
	MaxUnacked int
	// AckGroup is the group-acknowledgement size g: the receiver
	// acknowledges after every g in-order deliveries. The paper's Table 2
	// uses g = 1 (each packet has its own acknowledgement) and Section
	// 3.2 discusses amortizing with larger g at the cost of holding
	// source buffers longer. Defaults to 1.
	AckGroup int
	// NackThreshold is the number of distinct buffered (gap-blocked)
	// packets that convinces the receiver a packet was lost rather than
	// merely overtaken, triggering a negative acknowledgement. Benign
	// adaptive-routing reorder keeps buffers shallow; loss makes them
	// grow. Defaults to 4; a negative value disables NACKs.
	NackThreshold int
	// RetransmitAfter is the number of consecutive Pump calls without
	// acknowledgement progress after which the source retransmits its
	// oldest unacknowledged packet — the timeout backstop for lost
	// packets and lost NACKs. Zero disables timeouts.
	RetransmitAfter int
	// OnDeliver is the user handler invoked, in transmission order, for
	// every delivered packet. It runs at user level and is not charged.
	OnDeliver func(src int, ch uint8, data []network.Word)
}

// Stream is the per-node service implementing the indefinite-sequence
// multi-packet protocol of the paper's Figure 4: the source buffers each
// packet (supporting retransmission) and sends it with a sequence number;
// the receiver buffers out-of-order arrivals, delivers in order, and
// acknowledges so source buffers can be released.
type Stream struct {
	ep  *cmam.Endpoint
	cfg StreamConfig

	out map[connKey]*Conn
	in  map[connKey]*inConn
	err error
}

type connKey struct {
	peer int
	ch   uint8
}

// Conn is the source side of one ordered channel.
type Conn struct {
	s   *Stream
	dst int
	ch  uint8

	nextSeq  uint32
	unacked  map[uint32][]network.Word
	oldest   uint32   // lowest unacknowledged sequence
	sendq    []uint32 // assigned but not yet injected (backpressure)
	idlePump int      // Pump calls without ack progress
	closed   bool

	// seqMsg maps in-flight sequence numbers to their observability message
	// identities, so deferred injections and retransmissions attribute to
	// the Send that buffered them. Allocated lazily: nil while untraced.
	seqMsg map[uint32]uint64
}

// msgOf returns the message identity assigned to a sequence number, 0 when
// untraced.
func (c *Conn) msgOf(seq uint32) uint64 {
	if c.seqMsg == nil {
		return 0
	}
	return c.seqMsg[seq]
}

// inConn is the receiver side of one ordered channel.
type inConn struct {
	expected  uint32
	buffered  map[uint32][]network.Word
	delivered uint64
	sinceAck  int
	nackedFor uint32
	hasNacked bool
}

// NewStream installs the indefinite-sequence protocol on an endpoint.
func NewStream(ep *cmam.Endpoint, cfg StreamConfig) (*Stream, error) {
	if cfg.AckGroup <= 0 {
		cfg.AckGroup = 1
	}
	if cfg.NackThreshold == 0 {
		cfg.NackThreshold = 4
	}
	s := &Stream{
		ep:  ep,
		cfg: cfg,
		out: make(map[connKey]*Conn),
		in:  make(map[connKey]*inConn),
	}
	if err := ep.RegisterTag(TagStream, s.sink); err != nil {
		return nil, err
	}
	ep.Register(HStreamAck, s.handleAck)
	ep.Register(HStreamNack, s.handleNack)
	return s, nil
}

// MustNewStream is NewStream that panics on error; registration can only
// fail on a reserved tag, which is a programming error.
func MustNewStream(ep *cmam.Endpoint, cfg StreamConfig) *Stream {
	s, err := NewStream(ep, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

func (s *Stream) sched() *cost.Schedule { return s.ep.Node().Sched }

// Open returns the source side of channel ch toward dst, creating it on
// first use.
func (s *Stream) Open(dst int, ch uint8) *Conn {
	key := connKey{dst, ch}
	if c, ok := s.out[key]; ok {
		return c
	}
	c := &Conn{s: s, dst: dst, ch: ch, unacked: make(map[uint32][]network.Word)}
	s.out[key] = c
	return c
}

// Send transmits one packet's worth of data (at most the hardware packet
// payload) on the channel. The data is copied into the source's
// retransmission buffer before injection, per Figure 4 step 1.
func (c *Conn) Send(data ...network.Word) error {
	if c.closed {
		return errors.New("protocols: send on closed stream")
	}
	if len(data) == 0 || len(data) > c.s.sched().PacketWords {
		return fmt.Errorf("protocols: stream send of %d words (packet payload is %d)",
			len(data), c.s.sched().PacketWords)
	}
	if c.nextSeq > maxStreamSeq {
		return fmt.Errorf("protocols: stream exhausted its %d-bit sequence space", streamSeqBits)
	}
	if max := c.s.cfg.MaxUnacked; max > 0 && len(c.unacked) >= max {
		return ErrWindowFull
	}
	node := c.s.ep.Node()
	seq := c.nextSeq
	c.nextSeq++

	// Each sequenced packet is one causal message: the buffering below, the
	// (possibly deferred) injection, any retransmission, and the eventual
	// acknowledgement all attribute to it.
	prevMsg := node.Obs.CurrentMsg()
	if msg := node.Obs.NewMsg(); msg != 0 {
		if c.seqMsg == nil {
			c.seqMsg = make(map[uint32]uint64)
		}
		c.seqMsg[seq] = msg
	}
	defer node.Obs.SwapMsg(prevMsg)

	// Step 1: buffer the message to support retransmission (fault
	// tolerance), plus sequence-number bookkeeping (in-order delivery)
	// and the base injection cost.
	node.Charge(cost.FaultTol, c.s.sched().SourceBufferPacket)
	node.Charge(cost.InOrder, c.s.sched().SeqPerPacket)
	node.Charge(cost.Base, c.s.sched().StreamSendPacket)
	node.Event(evStreamSrcbuffer)
	buf := make([]network.Word, len(data))
	copy(buf, data)
	c.unacked[seq] = buf

	c.sendq = append(c.sendq, seq)
	return c.flush()
}

// flush injects queued packets in order until backpressure.
func (c *Conn) flush() error {
	node := c.s.ep.Node()
	for len(c.sendq) > 0 {
		seq := c.sendq[0]
		data, ok := c.unacked[seq]
		if !ok {
			// Acked while queued (a retransmission raced ahead); skip.
			c.sendq = c.sendq[1:]
			continue
		}
		prev := node.Obs.SwapMsg(c.msgOf(seq))
		err := c.inject(seq, data)
		if errors.Is(err, network.ErrBackpressure) {
			node.Charge(cost.Base, retryProbe)
			node.Event(evStreamBackpressure)
			node.Obs.SwapMsg(prev)
			node.Obs.SendQueueDepth(len(c.sendq))
			return nil
		}
		if err != nil {
			node.Obs.SwapMsg(prev)
			return err
		}
		node.Event(evStreamPacketSent)
		node.Obs.SwapMsg(prev)
		c.sendq = c.sendq[1:]
	}
	node.Obs.SendQueueDepth(0)
	return nil
}

// inject performs the raw send of one sequenced packet (step 2).
func (c *Conn) inject(seq uint32, data []network.Word) error {
	head := network.Word(c.ch)<<streamSeqBits | network.Word(seq&streamSeqMask)
	return c.s.ep.Send(c.dst, TagStream, head, data, cost.Base, nil)
}

// Unacked returns the number of packets awaiting acknowledgement.
func (c *Conn) Unacked() int { return len(c.unacked) }

// Idle reports whether everything sent has been injected and acknowledged.
func (c *Conn) Idle() bool { return len(c.unacked) == 0 && len(c.sendq) == 0 }

// Close marks the channel closed for further sends.
func (c *Conn) Close() { c.closed = true }

// Pump polls the endpoint, retries backpressured injections, and applies
// the retransmission timeout. Call repeatedly until connections are Idle.
func (s *Stream) Pump() error {
	if _, err := s.ep.Poll(0); err != nil {
		return err
	}
	if s.err != nil {
		err := s.err
		s.err = nil
		return err
	}
	for _, c := range s.out {
		if err := c.flush(); err != nil {
			return err
		}
		if len(c.unacked) == 0 {
			c.idlePump = 0
			continue
		}
		c.idlePump++
		if s.cfg.RetransmitAfter > 0 && c.idlePump >= s.cfg.RetransmitAfter {
			c.idlePump = 0
			if err := c.retransmit(c.oldest); err != nil {
				return err
			}
			s.ep.Node().Event(evStreamTimeout)
		}
	}
	return nil
}

// Step adapts the stream service to machine.Stepper semantics: done when
// every connection is idle.
func (s *Stream) Step() (bool, error) {
	if err := s.Pump(); err != nil {
		return false, err
	}
	for _, c := range s.out {
		if !c.Idle() {
			return false, nil
		}
	}
	return true, nil
}

// retransmit resends one buffered packet, charging fault tolerance. The
// event accompanies the charge (not the injection) so accounting can be
// reconstructed from event counts exactly.
func (c *Conn) retransmit(seq uint32) error {
	data, ok := c.unacked[seq]
	if !ok {
		return nil // already acknowledged
	}
	node := c.s.ep.Node()
	prev := node.Obs.SwapMsg(c.msgOf(seq))
	defer node.Obs.SwapMsg(prev)
	node.Charge(cost.FaultTol, c.s.sched().Retransmit)
	node.Event(evStreamRetransmit)
	err := c.inject(seq, data)
	if errors.Is(err, network.ErrBackpressure) {
		node.Charge(cost.Base, retryProbe)
		node.Event(evStreamBackpressure)
		return nil // the timeout will fire again
	}
	return err
}

// sink receives stream data packets (steps 3 and 4 at the receiver).
func (s *Stream) sink(src int, head network.Word, data []network.Word) error {
	node := s.ep.Node()
	ch := uint8(head >> streamSeqBits)
	seq := uint32(head & streamSeqMask)
	key := connKey{src, ch}
	in, ok := s.in[key]
	if !ok {
		in = &inConn{buffered: make(map[uint32][]network.Word)}
		s.in[key] = in
		// Per-channel reception-path setup.
		node.Charge(cost.Base, s.sched().StreamRecvFixed)
	}
	node.Charge(cost.Base, s.sched().StreamRecvPacket)

	switch {
	case seq == in.expected:
		node.Charge(cost.InOrder, s.sched().InOrderArrival)
		node.Event(evStreamInorder)
		if err := s.deliver(src, ch, in, data); err != nil {
			return err
		}
		// Drain any buffered packets that are now in order.
		for {
			next, ok := in.buffered[in.expected]
			if !ok {
				break
			}
			delete(in.buffered, in.expected)
			node.Charge(cost.InOrder, s.sched().DrainBuffered)
			node.Event(evStreamDrain)
			if err := s.deliver(src, ch, in, next); err != nil {
				return err
			}
		}
	case seq < in.expected:
		// The sender is retransmitting something we already delivered —
		// our acknowledgement must have been lost. Re-acknowledge
		// cumulatively so the sender's buffers drain.
		node.Event(evStreamDuplicate)
		if in.expected > 0 {
			if err := s.ep.SendAM(src, HStreamAck, cost.FaultTol, s.sched().StreamAckSend,
				network.Word(ch), network.Word(in.expected-1)); err != nil {
				if errors.Is(err, network.ErrBackpressure) {
					node.Event(evStreamBackpressure)
					return nil
				}
				return err
			}
			in.sinceAck = 0
			node.Event(evStreamAckSent)
		}
	default:
		if _, dup := in.buffered[seq]; dup {
			node.Event(evStreamDuplicate)
			break
		}
		node.Charge(cost.InOrder, s.sched().OutOfOrderArrival)
		node.Event(evStreamOutoforder)
		buf := make([]network.Word, len(data))
		copy(buf, data)
		in.buffered[seq] = buf
	}

	// Loss suspicion: a growing reorder buffer means the expected packet
	// is not merely overtaken but gone.
	if s.cfg.NackThreshold > 0 && len(in.buffered) >= s.cfg.NackThreshold &&
		(!in.hasNacked || in.nackedFor != in.expected) {
		in.hasNacked = true
		in.nackedFor = in.expected
		if err := s.ep.SendAM(src, HStreamNack, cost.FaultTol, s.sched().StreamAckSend,
			network.Word(ch), network.Word(in.expected)); err != nil {
			if errors.Is(err, network.ErrBackpressure) {
				in.hasNacked = false // try again on a later packet
				return nil
			}
			return err
		}
		node.Event(evStreamNackSent)
	}
	return nil
}

// deliver hands one packet to the user in order and applies the
// acknowledgement policy (step 4: each packet, or each group, is
// acknowledged so source storage can be released).
func (s *Stream) deliver(src int, ch uint8, in *inConn, data []network.Word) error {
	node := s.ep.Node()
	if s.cfg.OnDeliver != nil {
		s.cfg.OnDeliver(src, ch, data)
	}
	in.expected++
	in.delivered++
	in.sinceAck++
	if in.sinceAck >= s.cfg.AckGroup {
		in.sinceAck = 0
		if err := s.ep.SendAM(src, HStreamAck, cost.FaultTol, s.sched().StreamAckSend,
			network.Word(ch), network.Word(in.expected-1)); err != nil {
			if errors.Is(err, network.ErrBackpressure) {
				// Charge was taken; the next delivery's acknowledgement
				// is cumulative, so correctness is unaffected.
				in.sinceAck = s.cfg.AckGroup
				node.Event(evStreamBackpressure)
				return nil
			}
			return err
		}
		node.Event(evStreamAckSent)
	}
	return nil
}

// handleAck runs at the source: a cumulative acknowledgement through a
// sequence number releases the retained copies.
func (s *Stream) handleAck(src int, args []network.Word) {
	node := s.ep.Node()
	node.Charge(cost.FaultTol, s.sched().StreamAckRecv)
	if len(args) != 2 {
		s.err = fmt.Errorf("protocols: malformed stream ack from node %d: %v", src, args)
		return
	}
	c, ok := s.out[connKey{src, uint8(args[0])}]
	if !ok {
		s.err = fmt.Errorf("protocols: stream ack for unknown channel %d from node %d", args[0], src)
		return
	}
	through := uint32(args[1])
	for seq := c.oldest; seq <= through; seq++ {
		delete(c.unacked, seq)
		delete(c.seqMsg, seq)
	}
	if through >= c.oldest {
		c.oldest = through + 1
	}
	c.idlePump = 0
	node.Event(evStreamAckRecv)
}

// handleNack runs at the source: retransmit the requested packet.
func (s *Stream) handleNack(src int, args []network.Word) {
	node := s.ep.Node()
	node.Charge(cost.FaultTol, s.sched().StreamAckRecv)
	if len(args) != 2 {
		s.err = fmt.Errorf("protocols: malformed stream nack from node %d: %v", src, args)
		return
	}
	c, ok := s.out[connKey{src, uint8(args[0])}]
	if !ok {
		s.err = fmt.Errorf("protocols: stream nack for unknown channel %d from node %d", args[0], src)
		return
	}
	if err := c.retransmit(uint32(args[1])); err != nil {
		s.err = err
	}
	node.Event(evStreamNackRecv)
}
