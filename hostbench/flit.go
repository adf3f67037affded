package main

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"time"

	"msglayer/internal/critpath"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/monitor/blame"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

const (
	// flitCycles is the measurement length of every point, netload's default.
	flitCycles = 2000
	// drainBudget is netload's TickUntilQuiet budget.
	drainBudget = 200000
	// allocEvery sets how often a traced pass brackets an op's calls with
	// exact heap reads; each read stops the world, so not every op. The
	// bracketed ops sit mid-interval, away from a point's first cycle,
	// whose calls fill the engine's pools.
	allocEvery = 512
)

// flitPoint is one simulated measurement: a routing mode with its virtual
// channel count at one offered load, in packets per node per cycle.
type flitPoint struct {
	mode flitnet.Mode
	vcs  int
	load float64
}

func (p flitPoint) label() string {
	return fmt.Sprintf("%s/vc%d/load=%d", p.mode, p.vcs, int(p.load*1000+0.5))
}

// flitBench drives a grid of points on the flit engine: fresh topology,
// serial engine and uniform-traffic generator per point, the way netload
// runs its grid. With observed set each point also carries every
// observability layer netload can attach.
type flitBench struct {
	topo     string
	newTopo  func() (topology.Topology, error)
	points   []flitPoint
	seed     int64
	observed bool
	warn     io.Writer
	// statsPins and monitorPins hold each point's flitnet.Stats digest and
	// SLO report digest at the default seed.
	statsPins, monitorPins map[string]string

	ms runtime.MemStats
	c  flitCounters
}

// flitCounters accumulate simulated counts and heap probes over the traced
// passes of kind 1.
type flitCounters struct {
	passes                          int
	kills, retries, failed, pads    uint64
	moves, delivered, idle          uint64
	injects, accepted, received     uint64
	traceEvents, windows, incidents int
	renderBytes                     int64
	cpEvents                        int
	probes                          int
	cycleAlloc, flitAlloc           uint64
}

// newFlitMesh is the engine-bound workload: a 16x16 mesh, uniform traffic,
// each routing mode below and above the saturation knee. Adaptive routing
// runs with two virtual channels because with one it deadlocks on the mesh
// and the drain spins its whole budget.
func newFlitMesh(seed int64, warn io.Writer) *flitBench {
	var pts []flitPoint
	for _, load := range []float64{0.05, 0.2} {
		pts = append(pts,
			flitPoint{flitnet.Deterministic, 1, load},
			flitPoint{flitnet.Adaptive, 2, load},
			flitPoint{flitnet.CR, 1, load})
	}
	return &flitBench{
		topo:      "mesh 16x16",
		newTopo:   func() (topology.Topology, error) { return topology.NewMesh(16, 16) },
		points:    pts,
		seed:      seed,
		warn:      warn,
		statsPins: meshStatsPins,
	}
}

// newFlitObserved is netload's default Figure-6 grid (4-ary 2-tree, three
// modes, loads 0.02-0.3) with every observability layer attached per
// point, where the observability stack rather than the engine takes most
// of the host time.
func newFlitObserved(seed int64, warn io.Writer) *flitBench {
	var pts []flitPoint
	for _, load := range []float64{0.02, 0.05, 0.1, 0.2, 0.3} {
		for _, mode := range []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR} {
			pts = append(pts, flitPoint{mode, 1, load})
		}
	}
	return &flitBench{
		topo:        "fattree k=4 levels=2",
		newTopo:     func() (topology.Topology, error) { return topology.NewFatTree(4, 2) },
		points:      pts,
		seed:        seed,
		observed:    true,
		warn:        warn,
		statsPins:   observedStatsPins,
		monitorPins: observedMonitorPins,
	}
}

func (b *flitBench) params() map[string]any {
	var pts []string
	for _, p := range b.points {
		pts = append(pts, p.label())
	}
	return map[string]any{
		"topology": b.topo, "traffic": "uniform", "cycles_per_point": flitCycles,
		"points": pts, "observed": b.observed, "shards": 1,
	}
}

func (b *flitBench) traceKinds() []string {
	if b.observed {
		// The bare passes run the same points without observability, so
		// the flit scope's cost inside Tick shows as the difference.
		return []string{"untraced", "traced", "traced-bare"}
	}
	return []string{"untraced", "traced"}
}

func (b *flitBench) pass(tr *tracer, kind int, collect bool, ops []int64) (passResult, error) {
	res := passResult{ops: ops}
	var c *flitCounters
	if collect && kind == 1 {
		c = &b.c
		c.passes++
	}
	for i, pt := range b.points {
		// Every point starts from a collected heap, so its garbage
		// collections, and the peak heap they allow, do not depend on
		// what the points before it left behind.
		if i > 0 {
			runtime.GC()
		}
		if err := b.point(pt, tr, b.observed && kind != 2, c, &res); err != nil {
			return res, fmt.Errorf("%s: %w", pt.label(), err)
		}
	}
	return res, nil
}

// point sets up, runs, drains and checks one point.
func (b *flitBench) point(pt flitPoint, tr *tracer, observe bool, c *flitCounters, res *passResult) error {
	label := pt.label()
	fail := func(format string, args ...any) {
		res.failed++
		fmt.Fprintf(b.warn, "hostbench: check failed: %s: %s\n", label, fmt.Sprintf(format, args...))
	}

	setup := time.Now()
	tr.begin(spTopologyNew)
	topo, err := b.newTopo()
	tr.end()
	if err != nil {
		return err
	}
	tr.begin(spFlitnetNew)
	net, err := flitnet.New(flitnet.Config{
		Topology:        topo,
		Mode:            pt.mode,
		BufferFlits:     3,
		InjectQueue:     8,
		VirtualChannels: pt.vcs,
		Shards:          1,
	})
	tr.end()
	if err != nil {
		return err
	}
	defer net.Close()
	tr.begin(spWorkloadNew)
	gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), pt.load, b.seed)
	tr.end()
	if err != nil {
		return err
	}
	var (
		hub     *obs.Hub
		sampler *timeline.Sampler
		mon     *monitor.Monitor
	)
	if observe {
		tr.begin(spObsNew)
		hub = obs.NewHub()
		net.SetFlitObserver(hub.FlitScope())
		tr.end()
		tr.begin(spTimelineNew)
		sampler = timeline.New(hub.Metrics, timeline.Config{Interval: timeline.DefaultInterval})
		if tr != nil {
			net.SetCycleListener(func(cycle uint64) {
				tr.begin(spAdvance)
				sampler.Advance(cycle)
				tr.end()
			})
		} else {
			net.SetCycleListener(sampler.Advance)
		}
		tr.end()
		tr.begin(spMonitorNew)
		mon, err = monitor.New(monitor.CanonicalRules())
		if err == nil {
			mon.SetBlamer(blame.Compute)
		}
		tr.end()
		if err != nil {
			return err
		}
	}
	res.setup += time.Since(setup)

	alloc0 := heapAllocated(&b.ms)
	start := time.Now()
	tr.begin(spPoint)
	var attempted, accepted, refusedOther int
	for cycle := 0; cycle < flitCycles; cycle++ {
		probe := c != nil && cycle%allocEvery == allocEvery/2
		var m0, m1, m2 uint64
		tr.nextOp()
		opStart := time.Now()
		tr.begin(spOp)
		if probe {
			m0 = heapAllocated(&b.ms)
		}
		tr.begin(spCycle)
		arrivals := gen.Cycle()
		tr.end()
		if probe {
			m1 = heapAllocated(&b.ms)
		}
		tr.begin(spInject)
		for _, a := range arrivals {
			// A refusal under backpressure is part of the simulated
			// measurement (offered != accepted), not a failure.
			err := net.Inject(network.Packet{Src: a.Src, Dst: a.Dst, Data: []network.Word{network.Word(cycle)}})
			switch {
			case err == nil:
				accepted++
			case !errors.Is(err, network.ErrBackpressure):
				refusedOther++
			}
		}
		tr.end()
		attempted += len(arrivals)
		tr.begin(spTick)
		net.Tick(1)
		tr.end()
		if probe {
			m2 = heapAllocated(&b.ms)
			c.cycleAlloc += m1 - m0
			c.flitAlloc += m2 - m1
			c.probes++
		}
		tr.end()
		res.ops = append(res.ops, int64(time.Since(opStart)))
	}
	tr.begin(spDrain)
	quiet := net.TickUntilQuiet(drainBudget)
	tr.end()
	tr.begin(spRecv)
	received := 0
	for node := 0; node < net.Nodes(); node++ {
		for {
			if _, ok := net.TryRecv(node); !ok {
				break
			}
			received++
		}
	}
	tr.end()
	var (
		tl                                 *timeline.Timeline
		rep                                *monitor.Report
		an                                 *critpath.Analysis
		tlErr, renderErr, replayErr, cpErr error
		rendered                           countingWriter
	)
	if observe {
		tr.begin(spFlush)
		sampler.Flush(net.Cycle())
		tr.end()
		tr.begin(spReconcile)
		tlErr = sampler.Reconcile()
		tr.end()
		tr.begin(spSnapshot)
		tl = sampler.Snapshot()
		tr.end()
		tr.begin(spRender)
		renderErr = timeline.WriteJSON(&rendered, tl)
		tr.end()
		tr.begin(spReplay)
		replayErr = mon.Replay(tl)
		rep = mon.Snapshot(label)
		tr.end()
		tr.begin(spCritReconcile)
		cpErr = critpath.Reconcile(hub)
		tr.end()
		tr.begin(spAnalyze)
		an = critpath.Analyze(hub.Trace.Events())
		tr.end()
	}
	tr.end()
	res.timed += time.Since(start)
	res.alloc += heapAllocated(&b.ms) - alloc0

	st := net.FlitStats()
	if refusedOther > 0 {
		fail("%d injections refused for a reason other than backpressure", refusedOther)
	}
	if uint64(accepted) != uint64(received)+st.FailedWorms {
		fail("%d injections accepted, but %d packets received and %d worms failed", accepted, received, st.FailedWorms)
	}
	if !quiet || net.Pending() != 0 {
		fail("network not quiet after drain: %d worms pending", net.Pending())
	}
	if b.seed == defaultSeed {
		if got, want := statsDigest(st), b.statsPins[label]; got != want {
			fail("flitnet.Stats digest %s, pinned %s", got, want)
		}
	}
	if observe {
		for _, e := range []struct {
			what string
			err  error
		}{
			{"timeline reconcile", tlErr}, {"timeline render", renderErr},
			{"monitor replay", replayErr}, {"critpath reconcile", cpErr},
		} {
			if e.err != nil {
				fail("%s: %v", e.what, e.err)
			}
		}
		if b.seed == defaultSeed {
			if got, want := rep.Digest, b.monitorPins[label]; got != want {
				fail("monitor report digest %s, pinned %s", got, want)
			}
		}
	}

	if c == nil {
		return nil
	}
	c.kills += st.Kills
	c.retries += st.Retries
	c.failed += st.FailedWorms
	c.pads += st.PadFlits
	c.moves += st.FlitMoves
	c.delivered += st.Delivered
	c.idle += net.IdleSkipped()
	c.injects += uint64(attempted)
	c.accepted += uint64(accepted)
	c.received += uint64(received)
	if observe {
		c.traceEvents += hub.Trace.Len()
		c.windows += sampler.Windows()
		c.incidents += len(rep.Incidents)
		c.renderBytes += rendered.n
		c.cpEvents += an.TotalEvents
	}
	return nil
}

func (b *flitBench) layers(tracers []*tracer) map[string]float64 {
	agg := aggregate(tracers[1].spans, tracers[1].names)
	c := b.c
	passes := float64(c.passes)
	tick, drain := agg["flitnet.tick"], agg["flitnet.drain"]
	v := map[string]float64{
		"workload.cycle_ns":              agg["workload.cycle"].meanTotal(),
		"workload.alloc_bytes_per_cycle": ratio(c.cycleAlloc, c.probes),
		"topology.new_ns":                agg["topology.new"].meanTotal(),
		"flitnet.new_ns":                 agg["flitnet.new"].meanTotal(),
		"flitnet.tick_ns":                tick.meanSelf(),
		"flitnet.tick_p99_ns":            quantile(sortedCopy(tick.durations), 0.99),
		"flitnet.ns_per_flit_move":       ratio(tick.self+drain.self, c.moves),
		"flitnet.kills":                  float64(c.kills) / passes,
		"flitnet.retries":                float64(c.retries) / passes,
		"flitnet.kill_ratio":             ratio(c.kills, c.delivered+c.kills),
		"flitnet.failed_worms":           float64(c.failed) / passes,
		"flitnet.pad_flits":              float64(c.pads) / passes,
		"flitnet.inject_ns":              ratio(agg["flitnet.inject"].sum(), c.injects),
		"flitnet.inject_accept_ratio":    ratio(c.accepted, c.injects),
		"flitnet.recv_ns":                ratio(agg["flitnet.recv"].sum(), c.received),
		"flitnet.drain_s":                float64(drain.total) / passes / 1e9,
		"flitnet.idle_skipped":           float64(c.idle) / passes,
		"flitnet.flit_moves":             float64(c.moves) / passes,
		"flitnet.delivered":              float64(c.delivered) / passes,
		"flitnet.alloc_bytes_per_cycle":  ratio(c.flitAlloc, c.probes),
	}
	scope := 0.0
	if b.observed {
		bare := aggregate(tracers[2].spans, tracers[2].names)["flitnet.tick"]
		perCycle := tick.meanSelf() - bare.meanSelf()
		scope = perCycle * float64(tick.calls)
		windows := float64(c.windows)
		v["obs.scope_ns_per_cycle"] = perCycle
		v["obs.trace_events"] = float64(c.traceEvents) / passes
		v["timeline.advance_ns"] = agg["timeline.advance"].meanTotal()
		v["timeline.windows"] = windows / passes
		v["timeline.reconcile_ns"] = agg["timeline.reconcile"].meanTotal()
		v["timeline.snapshot_ns"] = agg["timeline.snapshot"].meanTotal()
		v["timeline.render_ns"] = agg["timeline.render"].meanTotal()
		v["timeline.render_bytes"] = float64(c.renderBytes) / passes
		v["monitor.replay_ns_per_window"] = ratio(agg["monitor.replay"].sum(), c.windows)
		v["monitor.incidents"] = float64(c.incidents) / passes
		v["critpath.analyze_ns"] = agg["critpath.analyze"].meanTotal()
		v["critpath.reconcile_ns"] = agg["critpath.reconcile"].meanTotal()
		v["critpath.ns_per_event"] = ratio(agg["critpath.analyze"].sum(), c.cpEvents)
	}
	v["bench.flitnet_share"], v["bench.obs_share"] = shares(agg, scope)
	return v
}

// ratio divides two counts, 0 when the denominator is.
func ratio[N, D int | int64 | uint64](num N, den D) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// countingWriter counts the bytes a renderer produces and keeps none.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}
