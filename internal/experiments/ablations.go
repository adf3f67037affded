package experiments

import (
	"errors"
	"fmt"
	"strings"

	"msglayer/internal/analytic"
	"msglayer/internal/cmam"
	"msglayer/internal/collectives"
	"msglayer/internal/cost"
	"msglayer/internal/ctrlnet"
	"msglayer/internal/flitnet"
	"msglayer/internal/machine"
	"msglayer/internal/network"
	"msglayer/internal/protocols"
	"msglayer/internal/report"
	"msglayer/internal/topology"
)

// GroupAckAblation quantifies Section 3.2's group-acknowledgement
// discussion: larger groups amortize per-packet acknowledgements at the
// cost of holding source buffers longer; overhead falls from ~70% toward
// ~40-50% but never vanishes.
func GroupAckAblation() (Result, error) {
	const words = 1024
	groups := []int{1, 2, 4, 8, 16}
	var points []report.SeriesPoint
	var comps []Comparison
	s := cost.MustPaperSchedule(4)
	for _, g := range groups {
		cells, err := runStreamCMAM(words, 4, g)
		if err != nil {
			return Result{}, err
		}
		prm := analytic.Params{
			MessageWords: words,
			OutOfOrder:   analytic.HalfOutOfOrder(s, words),
			AckGroup:     g,
		}
		model, err := analytic.IndefiniteCMAM(s, prm)
		if err != nil {
			return Result{}, err
		}
		points = append(points, report.SeriesPoint{
			X:      g,
			Values: []float64{float64(cells.Total().Total()), overhead(cells), model.Overhead()},
		})
		comps = append(comps, Comparison{
			Name:     fmt.Sprintf("group acks g=%d total (analytic vs simulated)", g),
			Paper:    model.Total().Total(),
			Measured: cells.Total().Total(),
		})
	}
	text := report.Series(
		"Group acknowledgements: 1024-word indefinite stream, half out of order",
		"g", []string{"total-instr", "overhead(sim)", "overhead(model)"}, points) +
		"\nPaper target: overhead remains significant (~40-50%) even with group acks.\n"
	return Result{
		ID:          "ablation-groupack",
		Title:       "Ablation: acknowledgement group size (Section 3.2)",
		Text:        text,
		Comparisons: comps,
	}, nil
}

// OutOfOrderAblation isolates the cost of arbitrary delivery order: the
// same stream delivered in order (a single-path network) versus half out
// of order (the paper's multipath assumption).
func OutOfOrderAblation() (Result, error) {
	const words = 1024
	run := func(policy network.ReorderPolicy) (report.Cells, error) {
		net, err := network.NewCM5Net(network.CM5Config{Nodes: 2, Reorder: policy})
		if err != nil {
			return nil, err
		}
		m, err := twoNode(net)
		if err != nil {
			return nil, err
		}
		var got []network.Word
		src := protocols.MustNewStream(cmam.NewEndpoint(m.Node(0)), protocols.StreamConfig{})
		dst := protocols.MustNewStream(cmam.NewEndpoint(m.Node(1)), protocols.StreamConfig{
			OnDeliver: func(_ int, _ uint8, data []network.Word) { got = append(got, data...) },
		})
		conn := src.Open(1, 0)
		data := payload(words)
		for off := 0; off < words; off += 4 {
			if err := conn.Send(data[off : off+4]...); err != nil {
				return nil, err
			}
		}
		err = machine.Run(maxRounds,
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

	inOrder, err := run(network.InOrder())
	if err != nil {
		return Result{}, err
	}
	halfOOO, err := run(network.PairSwap())
	if err != nil {
		return Result{}, err
	}

	s := cost.MustPaperSchedule(4)
	model0, err := analytic.IndefiniteCMAM(s, analytic.Params{MessageWords: words, OutOfOrder: 0, AckGroup: 1})
	if err != nil {
		return Result{}, err
	}
	model50, err := analytic.IndefiniteCMAM(s, analytic.Params{MessageWords: words, OutOfOrder: 128, AckGroup: 1})
	if err != nil {
		return Result{}, err
	}

	inOrderCost := inOrder[cost.Destination][cost.InOrder].Total()
	oooCost := halfOOO[cost.Destination][cost.InOrder].Total()
	text := fmt.Sprintf(
		"Destination in-order delivery cost, 1024-word stream (256 packets):\n"+
			"  all packets in order:   %6d instructions\n"+
			"  half out of order:      %6d instructions (%.1fx)\n"+
			"Totals: %d (in order) vs %d (half out of order)\n",
		inOrderCost, oooCost, float64(oooCost)/float64(inOrderCost),
		inOrder.Total().Total(), halfOOO.Total().Total())
	return Result{
		ID:    "ablation-ooo",
		Title: "Ablation: cost of arbitrary delivery order",
		Text:  text,
		Comparisons: []Comparison{
			{Name: "in-order stream total (analytic vs simulated)",
				Paper: model0.Total().Total(), Measured: inOrder.Total().Total()},
			{Name: "half-out-of-order stream total (analytic vs simulated)",
				Paper: model50.Total().Total(), Measured: halfOOO.Total().Total()},
		},
	}, nil
}

// FaultRateAblation measures the software retransmission cost the CM-5
// substrate incurs as packets are lost, and shows the CR substrate absorbs
// the same fault rate in hardware with zero software fault-tolerance cost.
func FaultRateAblation() (Result, error) {
	const packets = 256
	rates := []int{0, 64, 32, 16} // one loss every N packets; 0 = none
	var points []report.SeriesPoint
	var comps []Comparison
	for _, every := range rates {
		var plan network.FaultPlan = network.NoFaults{}
		if every > 0 {
			plan = &network.EveryNth{N: every, What: network.Drop}
		}
		// The paper's half-out-of-order baseline, with losses layered on.
		net, err := network.NewCM5Net(network.CM5Config{
			Nodes:   2,
			Faults:  plan,
			Reorder: network.PairSwap(),
		})
		if err != nil {
			return Result{}, err
		}
		m, err := twoNode(net)
		if err != nil {
			return Result{}, err
		}
		var got int
		src := protocols.MustNewStream(cmam.NewEndpoint(m.Node(0)), protocols.StreamConfig{
			NackThreshold: 3, RetransmitAfter: 64,
		})
		dst := protocols.MustNewStream(cmam.NewEndpoint(m.Node(1)), protocols.StreamConfig{
			NackThreshold: 3,
			OnDeliver:     func(int, uint8, []network.Word) { got++ },
		})
		conn := src.Open(1, 0)
		for i := 0; i < packets; i++ {
			if err := conn.Send(1, 2, 3, 4); err != nil {
				return Result{}, err
			}
		}
		err = machine.Run(maxRounds,
			machine.StepFunc(func() (bool, error) { return conn.Idle() && got == packets, src.Pump() }),
			machine.StepFunc(func() (bool, error) { return conn.Idle() && got == packets, dst.Pump() }),
		)
		if err != nil {
			return Result{}, err
		}
		if got != packets {
			return Result{}, fmt.Errorf("fault ablation: delivered %d of %d", got, packets)
		}
		cells := report.MergeRoles(m.Node(0).Gauge, m.Node(1).Gauge)
		ft := cells[cost.Source][cost.FaultTol].Add(cells[cost.Destination][cost.FaultTol]).Total()
		points = append(points, report.SeriesPoint{
			X:      every,
			Values: []float64{float64(cells.Total().Total()), float64(ft)},
		})
		if every == 0 {
			comps = append(comps, Comparison{
				Name: "fault-free stream total", Paper: 29965, Measured: cells.Total().Total(),
			})
		}
	}
	text := report.Series(
		"Software cost vs loss rate (CM-5 substrate, 256-packet stream; x = packets per loss, 0 = lossless)",
		"lossN", []string{"total-instr", "fault-tol-instr"}, points) +
		"\nOn the CR substrate the same losses are hardware retries: software cost unchanged.\n"
	return Result{
		ID:          "ablation-faults",
		Title:       "Ablation: software cost of packet loss",
		Text:        text,
		Comparisons: comps,
	}, nil
}

// ImprovedNIAblation reproduces the Section 5 argument: an on-chip NI cuts
// device-access instructions, reducing total cost but *raising* the
// fraction spent on messaging-layer services.
func ImprovedNIAblation() (Result, error) {
	const words = 1024
	base := cost.MustPaperSchedule(4)
	improved := base.WithImprovedNI(4)

	run := func(sched *cost.Schedule) (report.Cells, error) {
		net, err := network.NewCM5Net(network.CM5Config{Nodes: 2, Reorder: network.PairSwap()})
		if err != nil {
			return nil, err
		}
		m, err := machine.New(net, sched)
		if err != nil {
			return nil, err
		}
		m.Node(0).SetRole(cost.Source)
		m.Node(1).SetRole(cost.Destination)
		var got int
		src := protocols.MustNewStream(cmam.NewEndpoint(m.Node(0)), protocols.StreamConfig{})
		dst := protocols.MustNewStream(cmam.NewEndpoint(m.Node(1)), protocols.StreamConfig{
			OnDeliver: func(int, uint8, []network.Word) { got++ },
		})
		conn := src.Open(1, 0)
		for i := 0; i < words/4; i++ {
			if err := conn.Send(1, 2, 3, 4); err != nil {
				return nil, err
			}
		}
		err = machine.Run(maxRounds,
			machine.StepFunc(func() (bool, error) { return conn.Idle(), src.Pump() }),
			machine.StepFunc(func() (bool, error) { return conn.Idle(), dst.Pump() }),
		)
		if err != nil {
			return nil, err
		}
		return report.MergeRoles(m.Node(0).Gauge, m.Node(1).Gauge), nil
	}

	baseCells, err := run(base)
	if err != nil {
		return Result{}, err
	}
	fastCells, err := run(improved)
	if err != nil {
		return Result{}, err
	}
	if fastCells.Total().Total() >= baseCells.Total().Total() {
		return Result{}, errors.New("improved NI did not reduce total cost")
	}
	text := fmt.Sprintf(
		"1024-word indefinite stream, half out of order:\n"+
			"  CM-5 NI:     total %6d, overhead fraction %.3f\n"+
			"  improved NI: total %6d, overhead fraction %.3f\n"+
			"The improved interface cuts the total but raises the overhead fraction —\n"+
			"the paper's point that NI improvements make the messaging layer matter more.\n",
		baseCells.Total().Total(), overhead(baseCells),
		fastCells.Total().Total(), overhead(fastCells))
	comps := []Comparison{
		{Name: "improved NI lowers total", Paper: 1,
			Measured: boolU64(fastCells.Total().Total() < baseCells.Total().Total())},
		{Name: "improved NI raises overhead fraction", Paper: 1,
			Measured: boolU64(overhead(fastCells) > overhead(baseCells))},
	}
	return Result{
		ID:          "ablation-improved-ni",
		Title:       "Ablation: improved network interface (Section 5)",
		Text:        text,
		Comparisons: comps,
	}, nil
}

// FlitLevelDemo exercises the mechanism-level simulator: the same hotspot
// workload routed deterministically (in order), adaptively (reordered),
// and under Compressionless Routing (in order, with kills and retries
// resolving contention).
func FlitLevelDemo() (Result, error) {
	flows := [][2]int{{3, 15}, {7, 15}, {11, 15}}
	const perFlow = 40

	run := func(mode flitnet.Mode) (inversions int, st flitnet.Stats, err error) {
		n := flitnet.MustNew(flitnet.Config{
			Topology:    topology.MustFatTree(4, 2),
			Mode:        mode,
			BufferFlits: 3,
		})
		for seq := 0; seq < perFlow; seq++ {
			for _, fl := range flows {
				p := network.Packet{Src: fl[0], Dst: fl[1],
					Head: network.Word(seq), Data: []network.Word{1}}
				for {
					injErr := n.Inject(p)
					if injErr == nil {
						break
					}
					if !errors.Is(injErr, network.ErrBackpressure) {
						return 0, flitnet.Stats{}, injErr
					}
					n.Tick(1)
				}
			}
		}
		if !n.TickUntilQuiet(1_000_000) {
			return 0, flitnet.Stats{}, errors.New("flit network did not drain")
		}
		maxSeen := map[int]int{}
		for node := 0; node < n.Nodes(); node++ {
			for {
				p, ok := n.TryRecv(node)
				if !ok {
					break
				}
				if int(p.Head) < maxSeen[p.Src] {
					inversions++
				}
				if int(p.Head) > maxSeen[p.Src] {
					maxSeen[p.Src] = int(p.Head)
				}
			}
		}
		return inversions, n.FlitStats(), nil
	}

	var b strings.Builder
	var comps []Comparison
	for _, mode := range []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR} {
		inv, st, err := run(mode)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", mode, err)
		}
		fmt.Fprintf(&b, "%-14s delivered=%d reordered=%d kills=%d retries=%d cycles=%d flit-hops=%d\n",
			mode, st.Delivered, inv, st.Kills, st.Retries, st.Cycles, st.FlitMoves)
		switch mode {
		case flitnet.Deterministic:
			comps = append(comps, Comparison{Name: "deterministic flit routing reorders", Paper: 0, Measured: uint64(inv)})
		case flitnet.Adaptive:
			comps = append(comps, Comparison{Name: "adaptive flit routing reorders (nonzero expected)", Paper: 1, Measured: boolU64(inv > 0)})
		case flitnet.CR:
			comps = append(comps, Comparison{Name: "CR flit routing reorders", Paper: 0, Measured: uint64(inv)})
		}
	}
	b.WriteString("\nAdaptive multipath is the hardware mechanism behind the arbitrary delivery\norder whose software cost Tables 2/3 quantify; CR restores order in hardware.\n")
	return Result{
		ID:          "flit-demo",
		Title:       "Mechanism demo: flit-level wormhole routing (hotspot traffic, 4-ary 2-tree)",
		Text:        b.String(),
		Comparisons: comps,
	}, nil
}

// Ablations runs the non-paper experiments.
func Ablations() ([]Result, error) {
	runners := []func() (Result, error){
		GroupAckAblation, OutOfOrderAblation, FaultRateAblation,
		ImprovedNIAblation, InterruptReceptionAblation, RoutingTradeoffAblation, CrossoverAblation,
		ControlNetworkAblation, FlitLevelDemo,
	}
	var out []Result
	for _, run := range runners {
		r, err := run()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// InterruptReceptionAblation quantifies the paper's footnote 2: CMAM polls
// because interrupt-driven reception is expensive on the SPARC. With a
// 30-instruction trap cost per reception, the destination's cost of a
// 1024-word stream grows by one trap per data packet — enough to wipe out
// a large part of what better protocols save.
func InterruptReceptionAblation() (Result, error) {
	const words = 1024
	const trapCost = 30
	base := cost.MustPaperSchedule(4)
	intr := base.WithInterruptReception(trapCost)

	run := func(sched *cost.Schedule) (report.Cells, error) {
		net, err := network.NewCM5Net(network.CM5Config{Nodes: 2, Reorder: network.PairSwap()})
		if err != nil {
			return nil, err
		}
		m, err := machine.New(net, sched)
		if err != nil {
			return nil, err
		}
		m.Node(0).SetRole(cost.Source)
		m.Node(1).SetRole(cost.Destination)
		var got int
		src := protocols.MustNewStream(cmam.NewEndpoint(m.Node(0)), protocols.StreamConfig{})
		dst := protocols.MustNewStream(cmam.NewEndpoint(m.Node(1)), protocols.StreamConfig{
			OnDeliver: func(int, uint8, []network.Word) { got++ },
		})
		conn := src.Open(1, 0)
		for i := 0; i < words/4; i++ {
			if err := conn.Send(1, 2, 3, 4); err != nil {
				return nil, err
			}
		}
		err = machine.Run(maxRounds,
			machine.StepFunc(func() (bool, error) { return conn.Idle(), src.Pump() }),
			machine.StepFunc(func() (bool, error) { return conn.Idle(), dst.Pump() }),
		)
		if err != nil {
			return nil, err
		}
		if got != words/4 {
			return nil, fmt.Errorf("delivered %d of %d packets", got, words/4)
		}
		return report.MergeRoles(m.Node(0).Gauge, m.Node(1).Gauge), nil
	}

	polled, err := run(base)
	if err != nil {
		return Result{}, err
	}
	interrupted, err := run(intr)
	if err != nil {
		return Result{}, err
	}
	// Each reception at either node pays the trap: 256 data packets at
	// the destination plus 256 acknowledgements at the source.
	const p = words / 4
	want := polled.Total().Total() + 2*p*trapCost
	text := fmt.Sprintf(
		"1024-word indefinite stream, half out of order:\n"+
			"  polled reception:    %6d instructions\n"+
			"  interrupt reception: %6d instructions (+%d per packet/ack trap)\n"+
			"CMAM polls for exactly this reason (paper footnote 2).\n",
		polled.Total().Total(), interrupted.Total().Total(), trapCost)
	return Result{
		ID:    "ablation-interrupts",
		Title: "Ablation: polled vs interrupt-driven reception (footnote 2)",
		Text:  text,
		Comparisons: []Comparison{
			{Name: "interrupt reception total (closed form vs simulated)",
				Paper: want, Measured: interrupted.Total().Total()},
		},
	}, nil
}

// RoutingTradeoffAblation runs the Section 5 synthesis end to end: the same
// hotspot stream workload over the flit-level fat tree, routed
// deterministically and adaptively. Adaptive multipath improves the
// network's delivery latency under contention, but every packet it
// reorders costs the messaging layer reorder-buffering instructions — the
// "tension between optimizing routing performance and reducing software
// overhead" the paper concludes with.
func RoutingTradeoffAblation() (Result, error) {
	const dstNode = 15
	sources := []int{3, 7, 11}
	const packets = 40

	run := func(mode flitnet.Mode) (instr uint64, ooo uint64, mean float64, cycles uint64, err error) {
		net := flitnet.MustNew(flitnet.Config{
			Topology:    topology.MustFatTree(4, 2),
			Mode:        mode,
			BufferFlits: 3,
			InjectQueue: 4096,
		})
		sched, err := cost.NewPaperSchedule(net.PacketWords())
		if err != nil {
			return 0, 0, 0, 0, err
		}
		m, err := machine.New(net, sched)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		dst := m.Node(dstNode)
		dst.SetRole(cost.Destination)
		delivered := 0
		dstSvc := protocols.MustNewStream(cmam.NewEndpoint(dst), protocols.StreamConfig{
			NackThreshold: -1,
			OnDeliver:     func(int, uint8, []network.Word) { delivered++ },
		})
		var conns []*protocols.Conn
		var svcs []*protocols.Stream
		for _, s := range sources {
			node := m.Node(s)
			node.SetRole(cost.Source)
			svc := protocols.MustNewStream(cmam.NewEndpoint(node), protocols.StreamConfig{NackThreshold: -1})
			conn := svc.Open(dstNode, 0)
			for seq := 0; seq < packets; seq++ {
				if err := conn.Send(network.Word(seq)); err != nil {
					return 0, 0, 0, 0, err
				}
			}
			conns = append(conns, conn)
			svcs = append(svcs, svc)
		}
		done := func() bool {
			for _, c := range conns {
				if !c.Idle() {
					return false
				}
			}
			return true
		}
		steppers := []machine.Stepper{
			machine.StepFunc(func() (bool, error) { return done(), dstSvc.Pump() }),
			machine.StepFunc(func() (bool, error) {
				net.Tick(1)
				return done(), nil
			}),
		}
		for _, svc := range svcs {
			svc := svc
			steppers = append(steppers, machine.StepFunc(func() (bool, error) { return done(), svc.Pump() }))
		}
		if err := machine.Run(maxRounds, steppers...); err != nil {
			return 0, 0, 0, 0, err
		}
		if delivered != packets*len(sources) {
			return 0, 0, 0, 0, fmt.Errorf("delivered %d of %d", delivered, packets*len(sources))
		}
		st := net.FlitStats()
		return m.TotalGauge().Total().Total(), dst.Gauge.Events("stream.outoforder"),
			st.MeanLatency(), st.Cycles, nil
	}

	detInstr, detOOO, detLat, detCycles, err := run(flitnet.Deterministic)
	if err != nil {
		return Result{}, fmt.Errorf("deterministic: %w", err)
	}
	adInstr, adOOO, adLat, adCycles, err := run(flitnet.Adaptive)
	if err != nil {
		return Result{}, fmt.Errorf("adaptive: %w", err)
	}

	text := fmt.Sprintf(
		"Hotspot stream workload (3 flows x %d packets) on a 4-ary 2-tree, flit level:\n"+
			"  routing         instr     reordered   mean-latency(cyc)  run-cycles\n"+
			"  deterministic %7d   %9d   %17.1f  %10d\n"+
			"  adaptive      %7d   %9d   %17.1f  %10d\n"+
			"Adaptive multipath changes hardware delivery behavior, and every reordered\n"+
			"packet becomes messaging-layer buffering cost — the Section 5 trade-off.\n",
		packets, detInstr, detOOO, detLat, detCycles,
		adInstr, adOOO, adLat, adCycles)
	comps := []Comparison{
		{Name: "deterministic routing reorders", Paper: 0, Measured: detOOO},
		{Name: "adaptive routing reorders (nonzero expected)", Paper: 1, Measured: boolU64(adOOO > 0)},
		{Name: "adaptive reorder raises software cost", Paper: 1, Measured: boolU64(adInstr > detInstr)},
	}
	return Result{
		ID:          "ablation-routing-tradeoff",
		Title:       "Ablation: routing performance vs software overhead (Section 5)",
		Text:        text,
		Comparisons: comps,
	}, nil
}

// ControlNetworkAblation applies the paper's raise-the-hardware-level
// thesis to collective operations, as the real CM-5 did with its control
// network: a software all-reduce over active messages costs two Table 1
// round trips per non-root node, while a hardware combining tree costs
// each node a few device accesses. Both paths are executed and verified.
func ControlNetworkAblation() (Result, error) {
	sizes := []int{4, 16, 64}
	var points []report.SeriesPoint
	var comps []Comparison
	for _, nodes := range sizes {
		// Software path.
		swNet, err := network.NewCM5Net(network.CM5Config{Nodes: nodes})
		if err != nil {
			return Result{}, err
		}
		sched, err := cost.NewPaperSchedule(4)
		if err != nil {
			return Result{}, err
		}
		swM, err := machine.New(swNet, sched)
		if err != nil {
			return Result{}, err
		}
		swCost, err := runReduce(swM, nodes, nil)
		if err != nil {
			return Result{}, fmt.Errorf("software reduce (%d nodes): %w", nodes, err)
		}

		// Hardware path.
		hwNet, err := network.NewCM5Net(network.CM5Config{Nodes: nodes})
		if err != nil {
			return Result{}, err
		}
		hwM, err := machine.New(hwNet, sched)
		if err != nil {
			return Result{}, err
		}
		hwCost, err := runReduce(hwM, nodes, ctrlnet.MustNew(nodes, 4))
		if err != nil {
			return Result{}, fmt.Errorf("hardware reduce (%d nodes): %w", nodes, err)
		}

		points = append(points, report.SeriesPoint{
			X:      nodes,
			Values: []float64{float64(swCost), float64(hwCost), float64(swCost) / float64(hwCost)},
		})
		comps = append(comps,
			Comparison{Name: fmt.Sprintf("software all-reduce, %d nodes (closed form)", nodes),
				Paper: uint64(2 * (nodes - 1) * 47), Measured: swCost},
			Comparison{Name: fmt.Sprintf("hardware all-reduce, %d nodes (closed form)", nodes),
				Paper: uint64(nodes * 7), Measured: hwCost},
		)
	}
	text := report.Series(
		"All-reduce cost: software (active messages) vs hardware (combining tree)",
		"nodes", []string{"software-instr", "hardware-instr", "ratio"}, points) +
		"\nThe control network is the collective-operation analogue of Compressionless\nRouting: the service moves into the network and the software cost collapses.\n"
	return Result{
		ID:          "ablation-ctrlnet",
		Title:       "Ablation: hardware combining tree vs software collectives",
		Text:        text,
		Comparisons: comps,
	}, nil
}

// runReduce performs one all-reduce over the machine, software or (with a
// control network) hardware, and returns the machine-wide instruction cost.
func runReduce(m *machine.Machine, nodes int, cn *ctrlnet.Net) (uint64, error) {
	comms := make([]*collectives.Comm, nodes)
	for i := 0; i < nodes; i++ {
		c, err := collectives.New(cmam.NewEndpoint(m.Node(i)), nodes)
		if err != nil {
			return 0, err
		}
		if cn != nil {
			if err := c.AttachControlNetwork(cn); err != nil {
				return 0, err
			}
		}
		comms[i] = c
	}
	preds := make([]func() (network.Word, bool), nodes)
	var want network.Word
	for i, c := range comms {
		v := network.Word(i + 1)
		want += v
		var err error
		if cn != nil {
			preds[i], err = c.HWReduceBegin(v, ctrlnet.OpSum)
		} else {
			preds[i], err = c.ReduceBegin(v, collectives.Sum)
		}
		if err != nil {
			return 0, err
		}
	}
	done := func() bool {
		for _, p := range preds {
			if _, ok := p(); !ok {
				return false
			}
		}
		return true
	}
	steppers := make([]machine.Stepper, nodes)
	for i, c := range comms {
		steppers[i] = c.Stepper(done)
	}
	if err := machine.Run(maxRounds, steppers...); err != nil {
		return 0, err
	}
	for i, p := range preds {
		if got, _ := p(); got != want {
			return 0, fmt.Errorf("rank %d result %d, want %d", i, got, want)
		}
	}
	return m.TotalGauge().Total().Total(), nil
}

// CrossoverAblation locates where protocol-selection crossovers fall: the
// handshake-free indefinite protocol wins for tiny messages, and the
// finite protocol's fixed buffer-management and acknowledgement costs
// amortize within a few packets. The analytic crossover is verified by
// simulating both protocols at the bracketing sizes.
func CrossoverAblation() (Result, error) {
	s := cost.MustPaperSchedule(4)
	words, ok := analytic.CrossoverWords(analytic.ProtoFiniteCMAM, analytic.ProtoIndefiniteCMAM, s, 4096)
	if !ok {
		return Result{}, errors.New("crossover: none found")
	}

	var comps []Comparison
	var b strings.Builder
	fmt.Fprintf(&b, "Finite vs indefinite protocol totals around the crossover (n = 4):\n")
	fmt.Fprintf(&b, "%8s %14s %18s %10s\n", "words", "finite-instr", "indefinite-instr", "winner")
	for _, w := range []int{4, words - 4, words, 64, 1024} {
		if w < 4 {
			continue
		}
		fin, err := runFiniteCMAM(w, 4)
		if err != nil {
			return Result{}, err
		}
		ind, err := runStreamCMAM(w, 4, 1)
		if err != nil {
			return Result{}, err
		}
		fTot, iTot := fin.Total().Total(), ind.Total().Total()
		winner := "finite"
		if iTot < fTot {
			winner = "indefinite"
		}
		fmt.Fprintf(&b, "%8d %14d %18d %10s\n", w, fTot, iTot, winner)

		prm := analytic.Params{MessageWords: w, OutOfOrder: analytic.HalfOutOfOrder(s, w), AckGroup: 1}
		mf, err := analytic.FiniteCMAM(s, prm)
		if err != nil {
			return Result{}, err
		}
		comps = append(comps, Comparison{
			Name:     fmt.Sprintf("crossover %dw finite (analytic vs simulated)", w),
			Paper:    mf.Total().Total(),
			Measured: fTot,
		})
	}
	fmt.Fprintf(&b, "\nCrossover: the finite protocol becomes cheaper at %d words (%d packets).\n",
		words, words/4)
	comps = append(comps, Comparison{
		Name: "crossover within (1, 4] packets", Paper: 1,
		Measured: boolU64(words > 4 && words <= 16),
	})
	return Result{
		ID:          "ablation-crossover",
		Title:       "Ablation: protocol-selection crossover (finite vs indefinite)",
		Text:        b.String(),
		Comparisons: comps,
	}, nil
}
