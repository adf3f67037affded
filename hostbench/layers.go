package main

import "strings"

// Span names. A span's layer is the part of its name before the first dot;
// "bench" spans are the benchmark's own (an op, a point's timed section).
const (
	spOp uint16 = iota
	spPoint
	spTopologyNew
	spFlitnetNew
	spWorkloadNew
	spObsNew
	spTimelineNew
	spMonitorNew
	spCycle
	spInject
	spTick
	spAdvance
	spDrain
	spRecv
	spFlush
	spReconcile
	spSnapshot
	spRender
	spReplay
	spCritReconcile
	spAnalyze
	spMachineNew
	spProtocolsNew
	spSend
	spMachineRun
	spPumpSrc
	spPumpDst
)

var spanNames = []string{
	spOp:            "bench.op",
	spPoint:         "bench.point",
	spTopologyNew:   "topology.new",
	spFlitnetNew:    "flitnet.new",
	spWorkloadNew:   "workload.new",
	spObsNew:        "obs.new",
	spTimelineNew:   "timeline.new",
	spMonitorNew:    "monitor.new",
	spCycle:         "workload.cycle",
	spInject:        "flitnet.inject",
	spTick:          "flitnet.tick",
	spAdvance:       "timeline.advance",
	spDrain:         "flitnet.drain",
	spRecv:          "flitnet.recv",
	spFlush:         "timeline.flush",
	spReconcile:     "timeline.reconcile",
	spSnapshot:      "timeline.snapshot",
	spRender:        "timeline.render",
	spReplay:        "monitor.replay",
	spCritReconcile: "critpath.reconcile",
	spAnalyze:       "critpath.analyze",
	spMachineNew:    "machine.new",
	spProtocolsNew:  "protocols.new",
	spSend:          "protocols.send",
	spMachineRun:    "machine.run",
	spPumpSrc:       "protocols.pump_src",
	spPumpDst:       "protocols.pump_dst",
}

// layerMetrics lists every per-layer metric a traced run reports, on every
// workload; a layer a workload does not exercise reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"workload.cycle_ns", "ns/call"},
	{"workload.alloc_bytes_per_cycle", "B/call"},
	{"topology.new_ns", "ns/call"},
	{"flitnet.new_ns", "ns/call"},
	{"machine.new_ns", "ns/call"},
	{"flitnet.tick_ns", "ns/call"},
	{"flitnet.tick_p99_ns", "ns/call"},
	{"flitnet.ns_per_flit_move", "ns/move"},
	{"flitnet.kills", "count/pass"},
	{"flitnet.retries", "count/pass"},
	{"flitnet.kill_ratio", "ratio"},
	{"flitnet.failed_worms", "count/pass"},
	{"flitnet.pad_flits", "count/pass"},
	{"flitnet.inject_ns", "ns/call"},
	{"flitnet.inject_accept_ratio", "ratio"},
	{"flitnet.recv_ns", "ns/packet"},
	{"flitnet.drain_s", "s/pass"},
	{"flitnet.idle_skipped", "cycles/pass"},
	{"flitnet.flit_moves", "count/pass"},
	{"flitnet.delivered", "count/pass"},
	{"flitnet.alloc_bytes_per_cycle", "B/cycle"},
	{"obs.scope_ns_per_cycle", "ns/cycle"},
	{"obs.trace_events", "count/pass"},
	{"timeline.advance_ns", "ns/call"},
	{"timeline.windows", "count/pass"},
	{"timeline.reconcile_ns", "ns/call"},
	{"timeline.snapshot_ns", "ns/call"},
	{"timeline.render_ns", "ns/call"},
	{"timeline.render_bytes", "B/pass"},
	{"monitor.replay_ns_per_window", "ns/window"},
	{"monitor.incidents", "count/pass"},
	{"critpath.analyze_ns", "ns/call"},
	{"critpath.reconcile_ns", "ns/call"},
	{"critpath.ns_per_event", "ns/event"},
	{"protocols.send_ns", "ns/msg"},
	{"protocols.pump_src_ns", "ns/msg"},
	{"protocols.pump_dst_ns", "ns/msg"},
	{"machine.rounds_per_msg", "rounds/msg"},
	{"network.packets_per_msg", "packets/msg"},
	{"cost.instr_per_msg", "instr/msg"},
	{"cost.instr.base", "instr/msg"},
	{"cost.instr.buffer", "instr/msg"},
	{"cost.instr.inorder", "instr/msg"},
	{"cost.instr.fault", "instr/msg"},
	{"msglayer.ns_per_instr", "ns/instr"},
	{"msglayer.msg_us_small", "us/msg"},
	{"msglayer.msg_us_large", "us/msg"},
	{"msglayer.alloc_bytes_per_msg", "B/msg"},
	{"bench.trace_overhead", "ratio"},
	{"bench.flitnet_share", "ratio"},
	{"bench.obs_share", "ratio"},
}

// obsLayers are the observability layers: the hub and its flit scope, the
// windowed timeline, the SLO monitor and the critical-path analyzer.
var obsLayers = map[string]bool{"obs": true, "timeline": true, "monitor": true, "critpath": true}

// separation is where each workload is meant to spend its host time; the
// traced run reports whether it does.
var separation = map[string]struct {
	claim string
	holds func(v map[string]float64) bool
}{
	"flit-mesh": {"at least 80% of timed host time in flitnet calls",
		func(v map[string]float64) bool { return v["bench.flitnet_share"] >= 0.8 }},
	"flit-observed": {"at least 50% of timed host time in obs, timeline, monitor and critpath calls",
		func(v map[string]float64) bool { return v["bench.obs_share"] >= 0.5 }},
	"proto-mix": {"no host time in flitnet or observability calls",
		func(v map[string]float64) bool { return v["bench.flitnet_share"] == 0 && v["bench.obs_share"] == 0 }},
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// shares returns the fractions of the timed host time whose self time lies
// in flitnet calls and in observability calls. The timed host time is the
// bench.point spans (a point's ops, drain and post-processing), or on
// proto-mix, which has no points, the bench.op spans. Set-up spans lie
// outside both and are left out. scope is observability time that no span
// can isolate: flit-scope recording inside Tick, which moves from the
// flitnet share to the observability share.
func shares(agg map[string]*layerTime, scope float64) (flit, obsShare float64) {
	var timed, inFlit, inObs float64
	if p := agg["bench.point"]; p != nil {
		timed = float64(p.total)
	} else if op := agg["bench.op"]; op != nil {
		timed = float64(op.total)
	}
	for name, l := range agg {
		if strings.HasSuffix(name, ".new") {
			continue
		}
		switch layer := layerOf(name); {
		case layer == "flitnet":
			inFlit += float64(l.self)
		case obsLayers[layer]:
			inObs += float64(l.self)
		}
	}
	if timed == 0 {
		return 0, 0
	}
	return (inFlit - scope) / timed, (inObs + scope) / timed
}
