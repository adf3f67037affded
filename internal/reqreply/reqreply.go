// Package reqreply implements a deadlock-safe request/reply (RPC) service
// on active messages, demonstrating the deadlock/overflow-safety
// requirement of the paper's Section 2.1 and its footnote 6: with finite
// network buffering, a round-trip protocol on a single network can
// deadlock — every node's send is blocked on buffer space that only
// draining replies could free, but replies are stuck behind the requests.
// CMAM's answer on the CM-5 is structural: requests travel on one data
// network and replies on the other, so a handler can always emit its reply.
//
// The service runs over both machine shapes. On a dual-network machine
// (machine.NewDual) it is safe under any load; on a single-network machine
// with bounded buffering the package's tests exhibit the deadlock the
// paper warns about.
package reqreply

import (
	"errors"
	"fmt"

	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/network"
)

// Protocol events counted on the node gauges.
var (
	evReqreplyRequest   = cost.NewEvent("reqreply.request")
	evReqreplyReplied   = cost.NewEvent("reqreply.replied")
	evReqreplyCompleted = cost.NewEvent("reqreply.completed")
)

// Handler identifiers; applications sharing the endpoint must avoid them.
const (
	hRequest cmam.HandlerID = 40
	hReply   cmam.HandlerID = 41
)

// Server computes a reply payload from a request payload. It runs at the
// serving node inside the request handler.
type Server func(src int, args []network.Word) []network.Word

// Service is one node's request/reply engine.
type Service struct {
	ep      *cmam.Endpoint
	serve   Server
	nextID  uint32
	pending map[uint32]*Call
	err     error
}

// Call is one outstanding request.
type Call struct {
	id    uint32
	reply []network.Word
	done  bool
}

// Done reports completion.
func (c *Call) Done() bool { return c.done }

// Reply returns the reply payload; valid once Done.
func (c *Call) Reply() []network.Word { return c.reply }

// New installs the service on an endpoint. The server function may be nil
// on client-only nodes.
func New(ep *cmam.Endpoint, serve Server) *Service {
	s := &Service{ep: ep, serve: serve, pending: make(map[uint32]*Call)}
	ep.Register(hRequest, s.handleRequest)
	ep.Register(hReply, s.handleReply)
	return s
}

// Request issues a call carrying up to two payload words (the other two
// words of the four-word active message carry the call id and the payload
// length). The request is a Table 1 single-packet send.
func (s *Service) Request(dst int, args ...network.Word) (*Call, error) {
	if len(args) > 2 {
		return nil, fmt.Errorf("reqreply: %d payload words exceed the 2-word request format", len(args))
	}
	id := s.nextID
	s.nextID++
	call := &Call{id: id}
	s.pending[id] = call
	msg := append([]network.Word{network.Word(id), network.Word(len(args))}, args...)
	if err := s.ep.AM4(dst, hRequest, msg...); err != nil {
		delete(s.pending, id)
		return nil, err
	}
	s.ep.Node().Event(evReqreplyRequest)
	return call, nil
}

// Pump polls the endpoint and surfaces deferred handler errors.
func (s *Service) Pump() error {
	if _, err := s.ep.Poll(0); err != nil {
		return err
	}
	if s.err != nil {
		err := s.err
		s.err = nil
		return err
	}
	return nil
}

// handleRequest serves a call and replies — on the reply network when the
// node has one, which is what makes this safe under full request buffers.
func (s *Service) handleRequest(src int, args []network.Word) {
	node := s.ep.Node()
	node.Charge(cost.Base, node.Sched.RecvSingle)
	if len(args) < 2 {
		s.err = fmt.Errorf("reqreply: malformed request from node %d", src)
		return
	}
	if s.serve == nil {
		s.err = errors.New("reqreply: request received by client-only node")
		return
	}
	id := args[0]
	n := int(args[1])
	if n < 0 || 2+n > len(args) {
		s.err = fmt.Errorf("reqreply: request from node %d claims %d payload words", src, n)
		return
	}
	result := s.serve(src, args[2:2+n])
	if len(result) > 2 {
		s.err = fmt.Errorf("reqreply: server produced %d reply words (max 2)", len(result))
		return
	}
	msg := append([]network.Word{id, network.Word(len(result))}, result...)
	if err := s.ep.ReplyAM4(src, hReply, msg...); err != nil {
		// On a single bounded network this is where the deadlock bites:
		// the reply cannot enter. Surface it rather than spin.
		s.err = fmt.Errorf("reqreply: reply to node %d failed: %w", src, err)
		return
	}
	node.Event(evReqreplyReplied)
}

// handleReply completes the matching call.
func (s *Service) handleReply(src int, args []network.Word) {
	node := s.ep.Node()
	node.Charge(cost.Base, node.Sched.RecvSingle)
	if len(args) < 2 {
		s.err = fmt.Errorf("reqreply: malformed reply from node %d", src)
		return
	}
	call, ok := s.pending[uint32(args[0])]
	if !ok {
		s.err = fmt.Errorf("reqreply: reply for unknown call %d from node %d", args[0], src)
		return
	}
	n := int(args[1])
	if n < 0 || 2+n > len(args) {
		s.err = fmt.Errorf("reqreply: reply from node %d claims %d payload words", src, n)
		return
	}
	call.reply = append([]network.Word(nil), args[2:2+n]...)
	call.done = true
	delete(s.pending, call.id)
	node.Event(evReqreplyCompleted)
}
