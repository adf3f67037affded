// Package experiments contains one driver per table and figure of the
// paper, plus the ablations discussed in its prose. Each driver runs the
// real protocols over the simulated substrates, renders the result in the
// paper's layout, and reports paper-vs-measured comparisons.
package experiments

import (
	"fmt"

	"msglayer/internal/cmam"
	"msglayer/internal/cost"
	"msglayer/internal/crmsg"
	"msglayer/internal/machine"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/protocols"
	"msglayer/internal/report"
)

// observer, when set, is attached to every machine the drivers build, so
// one hub accumulates metrics and trace events across a whole run of
// experiments.
var observer *obs.Hub

// SetObserver installs (or clears, with nil) the hub experiment machines
// record through.
func SetObserver(h *obs.Hub) { observer = h }

// Result is one experiment's output.
type Result struct {
	ID          string
	Title       string
	Text        string
	Comparisons []Comparison
}

// Comparison is one paper-vs-measured row.
type Comparison struct {
	Name     string
	Paper    uint64
	Measured uint64
	// Note records caveats (corrupted paper panels, shape-only targets).
	Note string
}

// Match reports whether measured equals the paper value.
func (c Comparison) Match() bool { return c.Paper == c.Measured }

// maxRounds bounds protocol pump loops in every driver.
const maxRounds = 1_000_000

// payload builds a deterministic test payload.
func payload(words int) []network.Word {
	data := make([]network.Word, words)
	for i := range data {
		data[i] = network.Word(i*3 + 1)
	}
	return data
}

// twoNode assembles a two-node machine with roles for a 0 -> 1 transfer.
func twoNode(net network.Network) (*machine.Machine, error) {
	sched, err := cost.NewPaperSchedule(net.PacketWords())
	if err != nil {
		return nil, err
	}
	m, err := machine.New(net, sched)
	if err != nil {
		return nil, err
	}
	m.Node(0).SetRole(cost.Source)
	m.Node(1).SetRole(cost.Destination)
	if observer != nil {
		m.AttachObserver(observer)
	}
	return m, nil
}

// verify checks that the receiver saw exactly the sent words.
func verify(sent, got []network.Word) error {
	if len(got) != len(sent) {
		return fmt.Errorf("experiments: received %d of %d words", len(got), len(sent))
	}
	for i := range sent {
		if got[i] != sent[i] {
			return fmt.Errorf("experiments: word %d corrupted (%d != %d)", i, got[i], sent[i])
		}
	}
	return nil
}

// runFiniteCMAM runs one finite-sequence CMAM transfer and returns the
// merged role breakdown.
func runFiniteCMAM(words, packetWords int) (report.Cells, error) {
	net, err := network.NewCM5Net(network.CM5Config{Nodes: 2, PacketWords: packetWords})
	if err != nil {
		return nil, err
	}
	m, err := twoNode(net)
	if err != nil {
		return nil, err
	}
	src := protocols.NewFinite(cmam.NewEndpoint(m.Node(0)))
	dst := protocols.NewFinite(cmam.NewEndpoint(m.Node(1)))
	var received []network.Word
	dst.OnReceive = func(_ int, buf []network.Word) { received = buf }

	data := payload(words)
	tr, err := src.Start(1, data)
	if err != nil {
		return nil, err
	}
	err = m.Run(maxRounds,
		machine.StepFunc(func() (bool, error) { return tr.Done(), src.Pump() }),
		machine.StepFunc(func() (bool, error) { return tr.Done(), dst.Pump() }),
	)
	if err != nil {
		return nil, err
	}
	if err := verify(data, received); err != nil {
		return nil, err
	}
	return report.MergeRoles(m.Node(0).Gauge, m.Node(1).Gauge), nil
}

// runStreamCMAM runs an indefinite-sequence CMAM stream of the given total
// size under the paper's half-out-of-order delivery, returning the merged
// breakdown.
func runStreamCMAM(words, packetWords, ackGroup int) (report.Cells, error) {
	net, err := network.NewCM5Net(network.CM5Config{
		Nodes:       2,
		PacketWords: packetWords,
		Reorder:     network.PairSwap(),
	})
	if err != nil {
		return nil, err
	}
	m, err := twoNode(net)
	if err != nil {
		return nil, err
	}
	var got []network.Word
	src := protocols.MustNewStream(cmam.NewEndpoint(m.Node(0)), protocols.StreamConfig{AckGroup: ackGroup})
	dst := protocols.MustNewStream(cmam.NewEndpoint(m.Node(1)), protocols.StreamConfig{
		AckGroup:  ackGroup,
		OnDeliver: func(_ int, _ uint8, data []network.Word) { got = append(got, data...) },
	})
	conn := src.Open(1, 0)
	data := payload(words)
	for off := 0; off < words; off += packetWords {
		end := off + packetWords
		if end > words {
			end = words
		}
		if err := conn.Send(data[off:end]...); err != nil {
			return nil, err
		}
	}
	err = m.Run(maxRounds,
		machine.StepFunc(func() (bool, error) { return conn.Idle(), src.Pump() }),
		machine.StepFunc(func() (bool, error) { return conn.Idle(), dst.Pump() }),
	)
	if err != nil {
		return nil, err
	}
	if err := verify(data, got); err != nil {
		return nil, err
	}
	return report.MergeRoles(m.Node(0).Gauge, m.Node(1).Gauge), nil
}

// runFiniteCR runs one finite transfer over the CR substrate.
func runFiniteCR(words, packetWords int) (report.Cells, error) {
	net, err := network.NewCRNet(network.CRConfig{Nodes: 2, PacketWords: packetWords})
	if err != nil {
		return nil, err
	}
	m, err := twoNode(net)
	if err != nil {
		return nil, err
	}
	src, err := crmsg.NewFinite(cmam.NewEndpoint(m.Node(0)), net, crmsg.FiniteConfig{})
	if err != nil {
		return nil, err
	}
	var received []network.Word
	dst, err := crmsg.NewFinite(cmam.NewEndpoint(m.Node(1)), net, crmsg.FiniteConfig{
		OnReceive: func(_ int, buf []network.Word) { received = buf },
	})
	if err != nil {
		return nil, err
	}
	data := payload(words)
	tr, err := src.Start(1, data)
	if err != nil {
		return nil, err
	}
	err = m.Run(maxRounds,
		machine.StepFunc(func() (bool, error) { return tr.Done() && received != nil, src.Pump() }),
		machine.StepFunc(func() (bool, error) { return tr.Done() && received != nil, dst.Pump() }),
	)
	if err != nil {
		return nil, err
	}
	if err := verify(data, received); err != nil {
		return nil, err
	}
	return report.MergeRoles(m.Node(0).Gauge, m.Node(1).Gauge), nil
}

// runStreamCR runs an indefinite stream over the CR substrate.
func runStreamCR(words, packetWords int) (report.Cells, error) {
	net, err := network.NewCRNet(network.CRConfig{Nodes: 2, PacketWords: packetWords})
	if err != nil {
		return nil, err
	}
	m, err := twoNode(net)
	if err != nil {
		return nil, err
	}
	var got []network.Word
	src := crmsg.MustNewStream(cmam.NewEndpoint(m.Node(0)), crmsg.StreamConfig{})
	dst := crmsg.MustNewStream(cmam.NewEndpoint(m.Node(1)), crmsg.StreamConfig{
		OnDeliver: func(_ int, _ uint8, data []network.Word) { got = append(got, data...) },
	})
	conn := src.Open(1, 0)
	data := payload(words)
	for off := 0; off < words; off += packetWords {
		end := off + packetWords
		if end > words {
			end = words
		}
		if err := conn.Send(data[off:end]...); err != nil {
			return nil, err
		}
	}
	err = m.Run(maxRounds,
		machine.StepFunc(func() (bool, error) { return conn.Idle() && len(got) == words, src.Pump() }),
		machine.StepFunc(func() (bool, error) { return conn.Idle() && len(got) == words, dst.Pump() }),
	)
	if err != nil {
		return nil, err
	}
	if err := verify(data, got); err != nil {
		return nil, err
	}
	return report.MergeRoles(m.Node(0).Gauge, m.Node(1).Gauge), nil
}

// CanonicalScenarios lists the scenario names RunCanonical accepts, in the
// fixed order the perf-regression harness records them: the single-packet
// delivery, then the finite and indefinite protocols on each substrate.
func CanonicalScenarios() []string {
	return []string{"single", "cm5-finite", "cm5-stream", "cr-finite", "cr-stream"}
}

// RunCanonical runs one canonical scenario by name with the paper's 4-word
// packets and returns the role × feature instruction-cost breakdown. The
// runs are deterministic: identical inputs reproduce identical cells. words
// is ignored by "single", which always delivers one packet.
func RunCanonical(name string, words int) (report.Cells, error) {
	if words < 1 {
		return nil, fmt.Errorf("experiments: words must be positive, got %d", words)
	}
	switch name {
	case "single":
		g, err := runSingle()
		if err != nil {
			return nil, err
		}
		return report.FromGauge(g), nil
	case "cm5-finite":
		return runFiniteCMAM(words, 4)
	case "cm5-stream":
		return runStreamCMAM(words, 4, 1)
	case "cr-finite":
		return runFiniteCR(words, 4)
	case "cr-stream":
		return runStreamCR(words, 4)
	}
	return nil, fmt.Errorf("experiments: unknown canonical scenario %q", name)
}

// RunProtocol runs one generalized protocol point on the real simulator:
// the named protocol (finite, indefinite, finite-cr, indefinite-cr) moving
// a words-sized message in packetWords-word hardware packets, with
// ackGroup grouping acknowledgements on the indefinite CMAM protocol. It
// is the simulation side of cmd/sweep's -twin column: the analytic model
// must reproduce these cells exactly. The runs are deterministic and
// parallel-safe.
func RunProtocol(name string, words, packetWords, ackGroup int) (report.Cells, error) {
	if words < 1 {
		return nil, fmt.Errorf("experiments: words must be positive, got %d", words)
	}
	switch name {
	case "finite":
		return runFiniteCMAM(words, packetWords)
	case "indefinite":
		return runStreamCMAM(words, packetWords, ackGroup)
	case "finite-cr":
		return runFiniteCR(words, packetWords)
	case "indefinite-cr":
		return runStreamCR(words, packetWords)
	}
	return nil, fmt.Errorf("experiments: unknown protocol %q", name)
}

// runSingle runs one single-packet delivery and returns the gauge.
func runSingle() (*cost.Gauge, error) {
	net, err := network.NewCM5Net(network.CM5Config{Nodes: 2})
	if err != nil {
		return nil, err
	}
	m, err := twoNode(net)
	if err != nil {
		return nil, err
	}
	src := cmam.NewEndpoint(m.Node(0))
	dst := cmam.NewEndpoint(m.Node(1))
	dst.Register(1, func(int, []network.Word) {})
	if err := protocols.SinglePacket(src, dst, 1, 1, 2, 3, 4); err != nil {
		return nil, err
	}
	g := m.TotalGauge()
	return g, nil
}
