// Package perfreg is the repository's performance-regression harness: it
// runs the canonical scenarios a fixed number of times, records both the
// deterministic simulation metrics (instruction-cost totals per role ×
// feature × category, scheduler rounds, packet counts) and the host-side
// metrics (wall-clock time, allocations), persists them as schema-versioned
// BENCH snapshots, and compares two snapshots into a pass/fail verdict —
// sim metrics gate at exact equality, host metrics at a statistical
// threshold (see compare.go).
//
// The paper measures *where the time goes*; perfreg makes sure it keeps
// going to the same places: any PR that drifts an instruction count fails
// the exact-equality gate, and any PR that slows the harness beyond the
// noise fails the host gate.
//
// Record must not run concurrently with other experiment runs (it installs
// the experiments package's global observer while collecting sim metrics).
// Within a Record call the timed repetitions of each scenario may fan
// across a worker pool (RecordConfig.Parallel); the observed sim-metric run
// always stays serial, and snapshots recorded at different worker counts
// gate their host metrics only against snapshots recorded at the same
// count, because parallel repetitions time scheduler contention along with
// the work.
package perfreg

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"msglayer/internal/cost"
	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/timeline"
	"msglayer/internal/parsweep"
	"msglayer/internal/report"
	"msglayer/internal/topology"
	"msglayer/internal/twin"
	"msglayer/internal/workload"
)

// SchemaVersion identifies the snapshot layout; bump on incompatible
// changes and re-record the baseline. Only this version is read: the
// repository keeps one baseline snapshot, so there are no older layouts to
// fall back to. Version 7 is the layout with the SLO alert digests (the
// canonical monitor rules replayed over each netload mode's recorded
// timeline, digest and incident count exact-equality gated), the twin
// calibration scenario, the timeline digests, and the allocation benches.
const SchemaVersion = 7

// NetloadScenario names the flit-level sweep point recorded alongside the
// protocol scenarios.
const NetloadScenario = "netload-fattree-load100"

// TwinScenario names the analytic-twin calibration accuracy record: the
// per-regime MAPE and Pearson-r aggregates of the twin-vs-simulator sweep,
// stored as permyriad integers so the exact-equality gate applies.
const TwinScenario = "twin-calibration"

// Snapshot is one recorded snapshot document, such as BENCH_BASELINE.json.
type Snapshot struct {
	Schema    int    `json:"schema"`
	Label     string `json:"label"`
	CreatedAt string `json:"created_at,omitempty"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// Reps is the number of timed repetitions behind every host sample
	// vector.
	Reps int `json:"reps"`
	// Words is the transfer size the protocol scenarios ran with.
	Words int `json:"words"`
	// NetloadCycles is the measurement length of the flit-level point.
	NetloadCycles int `json:"netload_cycles"`
	// Parallel is the worker count the timed repetitions ran under; host
	// metrics only gate between snapshots recorded at the same count.
	Parallel int `json:"parallel,omitempty"`
	// MaxProcs is the GOMAXPROCS the snapshot was recorded under, a
	// provenance stamp for reading its host samples.
	MaxProcs  int              `json:"max_procs,omitempty"`
	Scenarios []ScenarioResult `json:"scenarios"`
	// Benches holds the allocation benchmarks; allocs/op gates at
	// no-regression.
	Benches []BenchResult `json:"benches,omitempty"`
}

// ScenarioResult is one scenario's recorded metrics.
type ScenarioResult struct {
	Name string `json:"name"`
	// Sim holds the deterministic simulation metrics; identical code and
	// inputs must reproduce them bit-for-bit.
	Sim map[string]uint64 `json:"sim"`
	// Host holds the per-repetition host-side samples; they vary run to
	// run and are compared statistically.
	Host HostSamples `json:"host"`
}

// HostSamples are per-repetition host measurements, one entry per rep.
type HostSamples struct {
	WallNS     []float64 `json:"wall_ns"`
	Allocs     []float64 `json:"allocs"`
	AllocBytes []float64 `json:"alloc_bytes"`
}

// RecordConfig parameterizes Record. Zero values select the defaults.
type RecordConfig struct {
	// Label names the snapshot (e.g. "PR2").
	Label string
	// Reps is the number of timed repetitions per scenario (default 5).
	Reps int
	// Words is the protocol transfer size (default 64).
	Words int
	// NetloadCycles is the flit-level measurement length (default 1000).
	NetloadCycles int
	// Parallel is the worker count for the timed repetitions (values below
	// 1 select GOMAXPROCS; 1 records serially).
	Parallel int
	// SkipBenches omits the allocation benchmarks, which cost a couple of
	// wall-clock seconds per recording.
	SkipBenches bool
	// Timestamp, when non-empty, is stored as CreatedAt.
	Timestamp string
}

func (c *RecordConfig) defaults() {
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Words <= 0 {
		c.Words = 64
	}
	if c.NetloadCycles <= 0 {
		c.NetloadCycles = 1000
	}
}

// Record runs every canonical scenario and returns the populated snapshot.
// Each scenario runs once under an observability hub to collect the sim
// metrics, then Reps more times unobserved for the host timing samples; the
// instruction cells of every repetition are checked against the first run,
// so nondeterminism is caught at record time rather than at the gate.
func Record(cfg RecordConfig) (*Snapshot, error) {
	cfg.defaults()
	workers := parsweep.Workers(cfg.Parallel)
	snap := &Snapshot{
		Schema:        SchemaVersion,
		Label:         cfg.Label,
		CreatedAt:     cfg.Timestamp,
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		Reps:          cfg.Reps,
		Words:         cfg.Words,
		NetloadCycles: cfg.NetloadCycles,
		Parallel:      workers,
		MaxProcs:      runtime.GOMAXPROCS(0),
	}
	for _, name := range experiments.CanonicalScenarios() {
		res, err := recordProtocolScenario(name, cfg.Words, cfg.Reps, workers)
		if err != nil {
			return nil, fmt.Errorf("perfreg: %s: %w", name, err)
		}
		snap.Scenarios = append(snap.Scenarios, *res)
	}
	res, err := recordNetloadScenario(cfg.NetloadCycles, cfg.Reps, workers)
	if err != nil {
		return nil, fmt.Errorf("perfreg: %s: %w", NetloadScenario, err)
	}
	snap.Scenarios = append(snap.Scenarios, *res)
	res, err = recordTwinScenario(workers)
	if err != nil {
		return nil, fmt.Errorf("perfreg: %s: %w", TwinScenario, err)
	}
	snap.Scenarios = append(snap.Scenarios, *res)
	if !cfg.SkipBenches {
		snap.Benches = recordBenches()
	}
	return snap, nil
}

// Timeline window widths for the recorded digests: scheduler rounds for
// the protocol scenarios, flit cycles for the netload point. Changing
// either changes every digest, which the exact-equality gate flags the
// same way a schema bump would.
const (
	protoTimelineInterval = 8
	netTimelineInterval   = 100
)

// recordProtocolScenario records one canonical protocol scenario.
func recordProtocolScenario(name string, words, reps, workers int) (*ScenarioResult, error) {
	// Observed run: sim metrics, excluded from timing. Always serial — it
	// mutates the experiments package's global observer. A timeline sampler
	// rides the hub's round clock so the snapshot pins not just the totals
	// but their distribution over simulated time.
	hub := obs.NewHub()
	sampler := timeline.New(hub.Metrics, timeline.Config{Interval: protoTimelineInterval})
	hub.SetTickListener(sampler.Advance)
	experiments.SetObserver(hub)
	cells, err := experiments.RunCanonical(name, words)
	experiments.SetObserver(nil)
	if err != nil {
		return nil, err
	}
	// The single-packet scenario never enters the observed run loop, so the
	// hub's round clock stays at zero; flushing at round 1 puts its whole
	// run in one partial window instead of losing it.
	end := hub.Round()
	if end == 0 {
		end = 1
	}
	sampler.Flush(end)
	if err := sampler.Reconcile(); err != nil {
		return nil, err
	}
	sim := simFromCells(cells)
	sim["rounds"] = hub.Metrics.CounterValue(obs.Key{Name: "run_rounds_total", Node: -1})
	for _, node := range []int{0, 1} {
		sim["packets/sent"] += hub.Metrics.CounterValue(obs.Key{Name: "packets_sent_total", Node: node, Proto: "cmam"})
		sim["packets/received"] += hub.Metrics.CounterValue(obs.Key{Name: "packets_received_total", Node: node, Proto: "cmam"})
	}
	tl := sampler.Snapshot()
	sim["timeline/digest"] = tl.DigestValue
	sim["timeline/windows"] = uint64(len(tl.Windows))

	res := &ScenarioResult{Name: name, Sim: sim}
	err = timedReps(&res.Host, reps, workers, func(rep int) error {
		again, err := experiments.RunCanonical(name, words)
		if err != nil {
			return err
		}
		if !cellsEqual(cells, again) {
			return fmt.Errorf("rep %d produced different instruction cells — scenario is nondeterministic", rep+1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// timedReps collects reps wall-clock and allocation samples of fn. Serially
// every repetition measures its own runtime.MemStats delta, exactly like
// the loop this generalizes. With workers > 1 the repetitions fan across a
// pool: wall clock stays per-repetition (and includes scheduler
// contention), but MemStats is process-global, so the allocation samples
// become the whole fan's delta averaged per repetition — the mean the gate
// compares is unchanged; only the per-rep variance is lost.
func timedReps(host *HostSamples, reps, workers int, fn func(rep int) error) error {
	if workers <= 1 {
		for rep := 0; rep < reps; rep++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			start := time.Now()
			if err := fn(rep); err != nil {
				return err
			}
			wall := time.Since(start)
			runtime.ReadMemStats(&after)
			host.WallNS = append(host.WallNS, float64(wall.Nanoseconds()))
			host.Allocs = append(host.Allocs, float64(after.Mallocs-before.Mallocs))
			host.AllocBytes = append(host.AllocBytes, float64(after.TotalAlloc-before.TotalAlloc))
		}
		return nil
	}
	wall := make([]float64, reps)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := parsweep.Run(workers, reps, func(rep int) error {
		start := time.Now()
		if err := fn(rep); err != nil {
			return err
		}
		wall[rep] = float64(time.Since(start).Nanoseconds())
		return nil
	})
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(reps)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(reps)
	for rep := 0; rep < reps; rep++ {
		host.WallNS = append(host.WallNS, wall[rep])
		host.Allocs = append(host.Allocs, allocs)
		host.AllocBytes = append(host.AllocBytes, bytes)
	}
	return nil
}

// simFromCells flattens a role × feature × category breakdown into the
// snapshot's flat metric map.
func simFromCells(cells report.Cells) map[string]uint64 {
	sim := make(map[string]uint64)
	var total uint64
	for _, r := range cost.Roles() {
		for _, f := range cost.Features() {
			v := cells[r][f]
			prefix := "instr/" + roleSlug(r) + "/" + featureSlug(f) + "/"
			sim[prefix+"reg"] = v.Reg
			sim[prefix+"mem"] = v.Mem
			sim[prefix+"dev"] = v.Dev
			total += v.Total()
		}
	}
	sim["instr/total"] = total
	return sim
}

// cellsEqual compares two breakdowns cell by cell.
func cellsEqual(a, b report.Cells) bool {
	for _, r := range cost.Roles() {
		for _, f := range cost.Features() {
			if a[r][f] != b[r][f] {
				return false
			}
		}
	}
	return true
}

// roleSlug is the snapshot key fragment for a role.
func roleSlug(r cost.Role) string {
	if r == cost.Source {
		return "src"
	}
	return "dst"
}

// featureSlug is the snapshot key fragment for a feature.
func featureSlug(f cost.Feature) string {
	switch f {
	case cost.Base:
		return "base"
	case cost.BufferMgmt:
		return "buffer"
	case cost.InOrder:
		return "inorder"
	default:
		return "fault"
	}
}

// recordNetloadScenario records the flit-level sweep point: a 4-ary 2-level
// fat tree under uniform traffic at offered load 0.1, for all three routing
// modes. The flit simulator is seeded, so its stats are deterministic.
func recordNetloadScenario(cycles, reps, workers int) (*ScenarioResult, error) {
	stats, err := runNetloadPoint(cycles, false)
	if err != nil {
		return nil, err
	}
	// Observed pass: the same point under a hub with a timeline sampler on
	// the cycle clock. Observation must not change the flit stats, and the
	// per-mode timeline digests join the exact-equality gate. The timed
	// repetitions below stay unobserved so the host samples keep measuring
	// the bare simulator.
	observed, err := runNetloadPoint(cycles, true)
	if err != nil {
		return nil, err
	}
	for k, v := range stats {
		if observed[k] != v {
			return nil, fmt.Errorf("observation drifted %s: %d observed, %d bare", k, observed[k], v)
		}
	}
	res := &ScenarioResult{Name: NetloadScenario, Sim: observed}
	err = timedReps(&res.Host, reps, workers, func(rep int) error {
		again, err := runNetloadPoint(cycles, false)
		if err != nil {
			return err
		}
		if !mapsEqual(stats, again) {
			return fmt.Errorf("rep %d produced different flit stats — sweep point is nondeterministic", rep+1)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// recordTwinScenario runs the analytic twin's full calibration sweep and
// flattens the accuracy aggregates into sim keys. The sweep is
// deterministic, so the permyriad MAPE and Pearson values gate under exact
// equality; record itself refuses a sweep that misses the accuracy floors.
// The twin's evaluation is closed form, so there is no meaningful host
// timing to sample — Host stays empty, and empty sample sets are skipped
// by the statistical gate.
func recordTwinScenario(workers int) (*ScenarioResult, error) {
	rep, err := twin.Calibrate(twin.Options{Parallel: workers})
	if err != nil {
		return nil, err
	}
	if err := rep.Check(twin.DefaultThresholds()); err != nil {
		return nil, err
	}
	pm := func(v int64) uint64 {
		if v < 0 {
			return 0
		}
		return uint64(v)
	}
	sim := map[string]uint64{
		"twin_net_points":   uint64(len(rep.Net)),
		"twin_proto_points": uint64(len(rep.Proto)),
	}
	for _, ra := range rep.NetAccuracy {
		for _, m := range ra.Metrics {
			sim[fmt.Sprintf("twin_mape_pm|%s|%s", ra.Regime, m.Metric)] = pm(m.MAPEPm)
			sim[fmt.Sprintf("twin_pearson_pm|%s|%s", ra.Regime, m.Metric)] = pm(m.PearsonPm)
		}
	}
	for _, m := range rep.ProtoAccuracy {
		sim["twin_mape_pm|protocol|"+m.Metric] = pm(m.MAPEPm)
		sim["twin_pearson_pm|protocol|"+m.Metric] = pm(m.PearsonPm)
	}
	return &ScenarioResult{Name: TwinScenario, Sim: sim}, nil
}

// netloadLoad and netloadSeed pin the recorded sweep point.
const (
	netloadLoad = 0.1
	netloadSeed = 1
)

// runNetloadPoint runs the pinned sweep point once per routing mode and
// returns the flattened deterministic stats. With observe set, each mode
// additionally runs under a hub whose timeline sampler rides the cycle
// listener, and the reconciled timeline's digest and window count join the
// returned map.
func runNetloadPoint(cycles int, observe bool) (map[string]uint64, error) {
	pattern, err := workload.ByName("uniform")
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64)
	for _, mode := range []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR} {
		topo, err := topology.NewFatTree(4, 2)
		if err != nil {
			return nil, err
		}
		net, err := flitnet.New(flitnet.Config{
			Topology:        topo,
			Mode:            mode,
			BufferFlits:     3,
			InjectQueue:     8,
			VirtualChannels: 1,
		})
		if err != nil {
			return nil, err
		}
		var sampler *timeline.Sampler
		if observe {
			hub := obs.NewHub()
			net.SetFlitObserver(hub.FlitScope())
			sampler = timeline.New(hub.Metrics, timeline.Config{Interval: netTimelineInterval})
			net.SetCycleListener(sampler.Advance)
		}
		nodes := net.Nodes()
		gen, err := workload.NewGenerator(pattern, nodes, netloadLoad, netloadSeed)
		if err != nil {
			return nil, err
		}
		for c := 0; c < cycles; c++ {
			for _, a := range gen.Cycle() {
				// Refused injections are part of the measurement.
				_ = net.Inject(network.Packet{
					Src: a.Src, Dst: a.Dst,
					Data: []network.Word{network.Word(c)},
				})
			}
			net.Tick(1)
		}
		net.TickUntilQuiet(200000)
		for node := 0; node < nodes; node++ {
			for {
				if _, ok := net.TryRecv(node); !ok {
					break
				}
			}
		}
		st := net.FlitStats()
		prefix := "net/" + mode.String() + "/"
		if sampler != nil {
			sampler.Flush(net.Cycle())
			if err := sampler.Reconcile(); err != nil {
				return nil, fmt.Errorf("%s: %w", mode, err)
			}
			tl := sampler.Snapshot()
			out[prefix+"timeline_digest"] = tl.DigestValue
			out[prefix+"timeline_windows"] = uint64(len(tl.Windows))
			// The canonical SLO rules replay over the same timeline; the
			// alert report digest pins when every alert opens and closes.
			// Blame is not wired here (it lives above perfreg in the import
			// graph) — the report digest excludes blame, so these digests
			// match reports produced with blame attached.
			mon, err := monitor.New(monitor.CanonicalRules())
			if err != nil {
				return nil, err
			}
			if err := mon.Replay(tl); err != nil {
				return nil, fmt.Errorf("%s: %w", mode, err)
			}
			rep := mon.Snapshot("")
			out[prefix+"alert_digest"] = rep.DigestValue
			out[prefix+"alert_incidents"] = uint64(len(rep.Incidents))
		}
		out[prefix+"injected"] = st.Injected
		out[prefix+"delivered"] = st.Delivered
		out[prefix+"backpressure"] = st.Backpressure
		out[prefix+"kills"] = st.Kills
		out[prefix+"retries"] = st.Retries
		out[prefix+"flit_moves"] = st.FlitMoves
		out[prefix+"failed_worms"] = st.FailedWorms
		out[prefix+"cycles"] = st.Cycles
		out[prefix+"latency_sum"] = st.LatencySum
		out[prefix+"latency_count"] = st.LatencyCount
		out[prefix+"latency_max"] = st.LatencyMax
	}
	return out, nil
}

// mapsEqual compares two flat metric maps.
func mapsEqual(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// WriteFile persists the snapshot as indented JSON.
func (s *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a snapshot, rejecting unknown schema versions.
func ReadFile(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("perfreg: %s: %w", path, err)
	}
	return s, nil
}

// Parse decodes a snapshot from raw JSON, rejecting unknown schema
// versions. An empty benches list decodes as none, the form WriteFile
// omits, so a parsed snapshot survives a write and re-read unchanged.
func Parse(data []byte) (*Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, err
	}
	if s.Schema != SchemaVersion {
		return nil, fmt.Errorf("schema %d, this build reads only schema %d (re-record the baseline)",
			s.Schema, SchemaVersion)
	}
	if len(s.Benches) == 0 {
		s.Benches = nil
	}
	return &s, nil
}
