package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"msglayer"
	"msglayer/internal/cost"
	"msglayer/internal/twin"
)

// scenarios are the canonical protocol scenarios, one persistent two-node
// machine each.
var scenarios = []string{"single", "cm5-finite", "cm5-stream", "cr-finite", "cr-stream"}

// streamReuseDiscount is how many instructions fewer than the twin's
// prediction every message after the first on a stream connection costs:
// the twin prices a fresh connection, whose open charge a reused one has
// already paid.
var streamReuseDiscount = map[string]uint64{"cm5-stream": 13, "cr-stream": 11}

// features is the paper's Feature axis, in the order the cost.instr.*
// metrics report it.
var features = [4]cost.Feature{cost.Base, cost.BufferMgmt, cost.InOrder, cost.FaultTol}

const (
	protoMsgsPerPass = 5000
	// Message sizes are log-uniform over this range, in words: small
	// messages expose the fixed cost per message, large ones the cost per
	// packet.
	minWords, maxWords = 4, 1024
	smallWords         = 16
	largeWords         = 256
	maxRounds          = 1_000_000
	// allocEveryMsg sets how often a traced pass brackets a message with
	// exact heap reads.
	allocEveryMsg = 8
)

// protoMsg is one message of the mix and the twin's exact instruction
// count for it on a fresh connection.
type protoMsg struct {
	scenario int
	data     []msglayer.Word
	want     uint64
}

// protoBench sends a fixed mix of messages, round-robin over the canonical
// scenarios, through the paper's messaging stack. No flit network and no
// observability layer is involved.
type protoBench struct {
	seed int64
	msgs []protoMsg
	warn io.Writer
	ms   runtime.MemStats
	// c holds counters per pass kind: whole-message timings come from the
	// untraced passes, span and heap figures from the traced ones.
	c [2]protoCounters
}

type protoCounters struct {
	passes, msgs, runMsgs  int
	rounds, packets, instr uint64
	feature                [4]uint64
	opNs                   int64
	small, large           []int64
	probes                 int
	alloc                  uint64
}

func newProtoMix(seed int64, warn io.Writer) (*protoBench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &protoBench{seed: seed, warn: warn}
	lo, hi := math.Log(minWords), math.Log(maxWords)
	perScenario := protoMsgsPerPass / len(scenarios)
	for i := 0; i < protoMsgsPerPass; i++ {
		sc := i % len(scenarios)
		words := 4 // a single-packet message carries one packet's four words
		if scenarios[sc] != "single" {
			// Stratified log-uniform: the k-th message of a scenario
			// draws from the k-th of perScenario equal slices of the
			// log range, so every seed gives each scenario the same size
			// spectrum and only the draws within a slice differ.
			k := float64(i / len(scenarios))
			u := (k + rng.Float64()) / float64(perScenario)
			words = int(math.Round(math.Exp(lo + u*(hi-lo))))
		}
		data := make([]msglayer.Word, words)
		for j := range data {
			data[j] = msglayer.Word(rng.Uint32())
		}
		pred, err := twin.ProtoPoint{Scenario: scenarios[sc], Words: words}.PredictProto()
		if err != nil {
			return nil, err
		}
		b.msgs = append(b.msgs, protoMsg{scenario: sc, data: data, want: pred.Total})
	}
	return b, nil
}

func (b *protoBench) params() map[string]any {
	return map[string]any{
		"scenarios": scenarios, "messages_per_pass": protoMsgsPerPass,
		"words": fmt.Sprintf("log-uniform %d-%d (single: 4)", minWords, maxWords), "packet_words": 4,
	}
}

func (b *protoBench) traceKinds() []string { return []string{"untraced", "traced"} }

// rig is one scenario's persistent two-node machine with its protocol
// service installed. deliver sends one message from node 0 and runs the
// machine until node 1 holds it.
type rig struct {
	name    string
	m       *msglayer.Machine
	reused  bool
	deliver func(tr *tracer, data []msglayer.Word) (got []msglayer.Word, rounds int, err error)
}

func newRig(name string, tr *tracer) (*rig, error) {
	tr.begin(spMachineNew)
	var (
		m   *msglayer.Machine
		crm *msglayer.CRMachine
		err error
	)
	switch name {
	case "single", "cm5-finite":
		m, err = msglayer.NewCM5Machine(msglayer.CM5Options{Nodes: 2})
	case "cm5-stream":
		m, err = msglayer.NewCM5Machine(msglayer.CM5Options{Nodes: 2, HalfOutOfOrder: true})
	default:
		if crm, err = msglayer.NewCRMachine(msglayer.CROptions{Nodes: 2}); err == nil {
			m = crm.Machine
		}
	}
	tr.end()
	if err != nil {
		return nil, err
	}
	m.Node(0).SetRole(msglayer.RoleSource)
	m.Node(1).SetRole(msglayer.RoleDestination)

	tr.begin(spProtocolsNew)
	defer tr.end()
	r := &rig{name: name, m: m}
	src, dst := msglayer.NewEndpoint(m.Node(0)), msglayer.NewEndpoint(m.Node(1))
	// run drives both nodes round-robin until done, with a span per pump.
	// Each step reads done before pumping, as internal/experiments does.
	run := func(tr *tracer, done func() bool, srcPump, dstPump func() error) (int, error) {
		rounds := 0
		tr.begin(spMachineRun)
		err := m.Run(maxRounds,
			msglayer.StepFunc(func() (bool, error) {
				d := done()
				rounds++
				tr.begin(spPumpSrc)
				err := srcPump()
				tr.end()
				return d, err
			}),
			msglayer.StepFunc(func() (bool, error) {
				d := done()
				tr.begin(spPumpDst)
				err := dstPump()
				tr.end()
				return d, err
			}))
		tr.end()
		return rounds, err
	}
	var got []msglayer.Word
	switch name {
	case "single":
		const handler = 1
		dst.Register(handler, func(_ int, args []msglayer.Word) { got = append(got[:0], args...) })
		r.deliver = func(tr *tracer, data []msglayer.Word) ([]msglayer.Word, int, error) {
			got = got[:0]
			tr.begin(spSend)
			err := src.AM4(1, handler, data...)
			tr.end()
			if err != nil {
				return nil, 0, err
			}
			tr.begin(spPumpDst)
			ok, err := dst.PollSingle()
			tr.end()
			if err == nil && !ok {
				err = errors.New("single-packet datagram never arrived")
			}
			return got, 0, err
		}
	case "cm5-finite", "cr-finite":
		var pumpSrc, pumpDst func() error
		var start func([]msglayer.Word) (interface{ Done() bool }, error)
		onReceive := func(_ int, buf []msglayer.Word) { got = buf }
		if name == "cm5-finite" {
			fs, fd := msglayer.NewFinite(src), msglayer.NewFinite(dst)
			fd.OnReceive = onReceive
			pumpSrc, pumpDst = fs.Pump, fd.Pump
			start = func(d []msglayer.Word) (interface{ Done() bool }, error) { return fs.Start(1, d) }
		} else {
			fs, err := msglayer.NewCRFinite(src, crm, msglayer.CRFiniteConfig{})
			if err != nil {
				return nil, err
			}
			fd, err := msglayer.NewCRFinite(dst, crm, msglayer.CRFiniteConfig{OnReceive: onReceive})
			if err != nil {
				return nil, err
			}
			pumpSrc, pumpDst = fs.Pump, fd.Pump
			start = func(d []msglayer.Word) (interface{ Done() bool }, error) { return fs.Start(1, d) }
		}
		r.deliver = func(tr *tracer, data []msglayer.Word) ([]msglayer.Word, int, error) {
			got = nil
			tr.begin(spSend)
			xfer, err := start(data)
			tr.end()
			if err != nil {
				return nil, 0, err
			}
			rounds, err := run(tr, func() bool { return xfer.Done() && got != nil }, pumpSrc, pumpDst)
			return got, rounds, err
		}
	case "cm5-stream", "cr-stream":
		onDeliver := func(_ int, _ uint8, d []msglayer.Word) { got = append(got, d...) }
		var pumpSrc, pumpDst func() error
		var conn interface {
			Send(...msglayer.Word) error
			Idle() bool
		}
		if name == "cm5-stream" {
			ss, err := msglayer.NewStream(src, msglayer.StreamConfig{})
			if err != nil {
				return nil, err
			}
			sd, err := msglayer.NewStream(dst, msglayer.StreamConfig{OnDeliver: onDeliver})
			if err != nil {
				return nil, err
			}
			pumpSrc, pumpDst, conn = ss.Pump, sd.Pump, ss.Open(1, 0)
		} else {
			ss, err := msglayer.NewCRStream(src, msglayer.CRStreamConfig{})
			if err != nil {
				return nil, err
			}
			sd, err := msglayer.NewCRStream(dst, msglayer.CRStreamConfig{OnDeliver: onDeliver})
			if err != nil {
				return nil, err
			}
			pumpSrc, pumpDst, conn = ss.Pump, sd.Pump, ss.Open(1, 0)
		}
		packetWords := m.Net.PacketWords()
		r.deliver = func(tr *tracer, data []msglayer.Word) ([]msglayer.Word, int, error) {
			got = got[:0]
			tr.begin(spSend)
			for off := 0; off < len(data); off += packetWords {
				if err := conn.Send(data[off:min(off+packetWords, len(data))]...); err != nil {
					tr.end()
					return nil, 0, err
				}
			}
			tr.end()
			rounds, err := run(tr, func() bool { return conn.Idle() && len(got) == len(data) }, pumpSrc, pumpDst)
			return got, rounds, err
		}
	default:
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
	return r, nil
}

// featureTotals sums a machine's instruction counts per feature over both
// roles and every node, without allocating.
func featureTotals(m *msglayer.Machine) (t [4]uint64) {
	for _, n := range m.Nodes {
		for i, f := range features {
			t[i] += n.Gauge.FeatureTotal(f).Total()
		}
	}
	return t
}

func (b *protoBench) pass(tr *tracer, kind int, collect bool, ops []int64) (passResult, error) {
	res := passResult{ops: ops}
	var c *protoCounters
	if collect {
		c = &b.c[min(kind, 1)]
		c.passes++
	}
	setup := time.Now()
	rigs := make([]*rig, len(scenarios))
	for i, name := range scenarios {
		r, err := newRig(name, tr)
		if err != nil {
			return res, fmt.Errorf("%s: %w", name, err)
		}
		rigs[i] = r
	}
	res.setup = time.Since(setup)

	alloc0 := heapAllocated(&b.ms)
	for i, msg := range b.msgs {
		r := rigs[msg.scenario]
		before := featureTotals(r.m)
		packets0 := r.m.Net.Stats().Injected
		probe := c != nil && tr != nil && i%allocEveryMsg == 0
		var a0 uint64
		if probe {
			a0 = heapAllocated(&b.ms)
		}
		tr.nextOp()
		start := time.Now()
		tr.begin(spOp)
		got, rounds, err := r.deliver(tr, msg.data)
		intact := err == nil && equalWords(got, msg.data)
		tr.end()
		d := int64(time.Since(start))
		if probe {
			c.alloc += heapAllocated(&b.ms) - a0
			c.probes++
		}
		res.ops = append(res.ops, d)
		res.timed += time.Duration(d)

		after := featureTotals(r.m)
		var delta [4]uint64
		var instr uint64
		for f := range delta {
			delta[f] = after[f] - before[f]
			instr += delta[f]
		}
		want := msg.want
		if r.reused {
			want -= streamReuseDiscount[r.name]
		}
		r.reused = true
		var problem string
		switch {
		case err != nil:
			problem = err.Error()
		case !intact:
			problem = fmt.Sprintf("%d words sent, %d received or reordered/corrupted", len(msg.data), len(got))
		case instr != want:
			problem = fmt.Sprintf("%d instructions charged, twin predicts %d", instr, want)
		}
		if problem != "" {
			res.failed++
			fmt.Fprintf(b.warn, "hostbench: check failed: %s message %d (%d words): %s\n", r.name, i, len(msg.data), problem)
		}

		if c == nil {
			continue
		}
		c.msgs++
		if rounds > 0 {
			c.runMsgs++
			c.rounds += uint64(rounds)
		}
		c.packets += r.m.Net.Stats().Injected - packets0
		c.instr += instr
		for f := range delta {
			c.feature[f] += delta[f]
		}
		c.opNs += d
		if n := len(msg.data); n <= smallWords {
			c.small = append(c.small, d)
		} else if n >= largeWords {
			c.large = append(c.large, d)
		}
	}
	res.alloc = heapAllocated(&b.ms) - alloc0
	return res, nil
}

func equalWords(got, want []msglayer.Word) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

func (b *protoBench) layers(tracers []*tracer) map[string]float64 {
	agg := aggregate(tracers[1].spans, tracers[1].names)
	plain, traced := &b.c[0], &b.c[1]
	msgs := traced.msgs
	v := map[string]float64{
		"machine.new_ns":               agg["machine.new"].meanTotal(),
		"protocols.send_ns":            ratio(agg["protocols.send"].sum(), msgs),
		"protocols.pump_src_ns":        ratio(agg["protocols.pump_src"].sum(), msgs),
		"protocols.pump_dst_ns":        ratio(agg["protocols.pump_dst"].sum(), msgs),
		"machine.rounds_per_msg":       ratio(traced.rounds, traced.runMsgs),
		"network.packets_per_msg":      ratio(traced.packets, msgs),
		"cost.instr_per_msg":           ratio(traced.instr, msgs),
		"cost.instr.base":              ratio(traced.feature[0], msgs),
		"cost.instr.buffer":            ratio(traced.feature[1], msgs),
		"cost.instr.inorder":           ratio(traced.feature[2], msgs),
		"cost.instr.fault":             ratio(traced.feature[3], msgs),
		"msglayer.ns_per_instr":        ratio(plain.opNs, plain.instr),
		"msglayer.msg_us_small":        medianNs(plain.small) / 1e3,
		"msglayer.msg_us_large":        medianNs(plain.large) / 1e3,
		"msglayer.alloc_bytes_per_msg": ratio(traced.alloc, traced.probes),
	}
	v["bench.flitnet_share"], v["bench.obs_share"] = shares(agg, 0)
	return v
}

func medianNs(v []int64) float64 {
	return quantile(sortedCopy(v), 0.5)
}
