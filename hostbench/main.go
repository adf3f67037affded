// Command hostbench measures the simulator in host time: how long the
// flit engine, the observability stack and the messaging-layer protocol
// path take to run, end to end and layer by layer. It applies the paper's
// question, "where does the time go?", to this repository itself.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash hostbench/run.sh --workload flit-mesh --seed 1 --seconds 30 --trace 0
//	bash hostbench/run.sh --workload all --seconds 10   # every workload in turn
//
// One process drives each layer from outside through its public functions,
// on one goroutine, with the serial flit engine. The loop is closed with a
// single caller: the next op starts when the previous one returns. An op is
// one simulated measurement cycle on the flit workloads and one message,
// from send to verified delivery, on proto-mix.
//
// With --trace 0 the last line of standard output is a JSON object holding
// the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
// a separate traced run, whose spans are written to --trace-dir at the end.
// Every output is checked, and each failed check counts one failed op.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// defaultSeed is the seed the pinned simulation digests were recorded at.
const defaultSeed = 1

// spanLimit caps the spans a traced run keeps in memory (32 B each); a
// traced run stops early rather than grow past it.
const spanLimit = 1 << 20

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// passResult is what one pass over a workload's inputs measured. A pass is
// the unit a run repeats until its time is up; every pass of a run gets the
// same inputs, so per-pass values are comparable and the run reports their
// medians.
type passResult struct {
	setup  time.Duration // host time before the first op of each point or scenario
	timed  time.Duration // ops plus drain and post-processing, setup and checks excluded
	ops    []int64       // host ns of each op
	alloc  uint64        // heap bytes allocated during the timed sections
	failed int           // failed output checks
}

// passStats is a pass reduced to the figures the metrics are medians of.
// Passes are reduced as they end, so a run's memory does not grow with
// the number of passes a fast host fits into it.
type passStats struct {
	setup, opsPerSec, p50us, p99us, allocPerOp float64
	ops, failed                                int
}

// reduce summarizes p, sorting p.ops in place.
func reduce(p passResult) passStats {
	sort.Slice(p.ops, func(i, j int) bool { return p.ops[i] < p.ops[j] })
	n := len(p.ops)
	return passStats{
		setup:      p.setup.Seconds(),
		opsPerSec:  float64(n) / p.timed.Seconds(),
		p50us:      quantile(p.ops, 0.50) / 1e3,
		p99us:      quantile(p.ops, 0.99) / 1e3,
		allocPerOp: float64(p.alloc) / float64(n),
		ops:        n,
		failed:     p.failed,
	}
}

// bench is one workload: a set of inputs and the ops that run them.
type bench interface {
	// params describes the inputs, for the provenance stamp.
	params() map[string]any
	// pass runs every op of the workload once, appending each op's host
	// time to ops. tr is nil on untraced passes; kind indexes traceKinds;
	// collect gathers the counters layers reads, which only a traced run
	// needs. An error means the workload could not be set up; failed
	// output checks are counted, not returned.
	pass(tr *tracer, kind int, collect bool, ops []int64) (passResult, error)
	// traceKinds lists the pass kinds a traced run cycles through; kind 0
	// is always the untraced pass the tracing overhead is measured against.
	traceKinds() []string
	// layers computes the per-layer metrics from a traced run's tracers,
	// one per kind, nil at kind 0.
	layers(tracers []*tracer) map[string]float64
}

// newWorkload builds the named workload's inputs from seed; failed checks
// are described on warn.
func newWorkload(name string, seed int64, warn io.Writer) (bench, error) {
	switch name {
	case "flit-mesh":
		return newFlitMesh(seed, warn), nil
	case "flit-observed":
		return newFlitObserved(seed, warn), nil
	case "proto-mix":
		return newProtoMix(seed, warn)
	}
	return nil, fmt.Errorf("unknown workload %q (want flit-mesh, flit-observed or proto-mix)", name)
}

// workloadNames lists the workloads in the order --workload all runs them.
var workloadNames = []string{"flit-mesh", "flit-observed", "proto-mix"}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "flit-mesh, flit-observed, proto-mix, or all to run each in turn")
	seed := fs.Int64("seed", defaultSeed, "input seed; pinned digests are checked only at the default")
	seconds := fs.Int("seconds", 30, "how long to measure each workload")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "spans"), "where a traced run writes its spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "hostbench: want --seconds >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	var benches []bench
	for _, n := range names {
		w, err := newWorkload(n, *seed, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 2
		}
		benches = append(benches, w)
	}
	for i, w := range benches {
		if err := runOne(stdout, stderr, w, names[i], *seed, *seconds, *traced, *traceDir); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
	}
	return 0
}

// runOne measures one workload and prints its provenance, its metrics and,
// last, its result line.
func runOne(stdout, stderr io.Writer, w bench, name string, seed int64, seconds, traced int, traceDir string) error {
	provJSON, err := json.Marshal(stamp(name, seed, seconds, traced, w.params()))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "# provenance %s\n", provJSON)
	budget := time.Duration(seconds) * time.Second
	var res result
	if traced == 0 {
		passes, err := repeat(budget, 1, func(int) bool { return true }, func(_ int, ops []int64) (passResult, error) {
			return w.pass(nil, 0, false, ops)
		})
		if err != nil {
			return err
		}
		res = endToEnd(stdout, passes)
	} else if res, err = traceRun(stdout, w, budget, traceDir, name, string(provJSON)); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", out)
	return nil
}

// repeat runs passes until budget has elapsed, and at least minPasses. ok
// is asked before each pass whether it may start; a false ends the run.
// Pass i appends its op times to the buffer it is given, which every pass
// reuses. Each pass starts from a collected heap so one pass's garbage
// does not land on the next.
func repeat(budget time.Duration, minPasses int, ok func(i int) bool, pass func(i int, ops []int64) (passResult, error)) ([]passStats, error) {
	var passes []passStats
	var ops []int64
	start := time.Now()
	for i := 0; i < minPasses || time.Since(start) < budget; i++ {
		if !ok(i) {
			break
		}
		runtime.GC()
		p, err := pass(i, ops[:0])
		if err != nil {
			return nil, err
		}
		ops = p.ops
		passes = append(passes, reduce(p))
	}
	return passes, nil
}

// endToEnd reduces untraced passes to the end-to-end metrics, printing all
// of them with units and sample counts. error_rate is printed but not put
// in the JSON result: it is 0 on a correct run, and the result carries the
// same figure as failed/attempted.
func endToEnd(stdout io.Writer, passes []passStats) result {
	var setup, rate, p50, p99, alloc []float64
	ops, failed := 0, 0
	for _, p := range passes {
		setup = append(setup, p.setup)
		rate = append(rate, p.opsPerSec)
		p50 = append(p50, p.p50us)
		p99 = append(p99, p.p99us)
		alloc = append(alloc, p.allocPerOp)
		ops += p.ops
		failed += p.failed
	}
	n := len(passes)
	perPass := ops / n
	m := map[string]metric{
		"setup_s":            {median(setup), "s"},
		"ops_per_s":          {median(rate), "ops/s"},
		"op_p50_us":          {median(p50), "us"},
		"op_p99_us":          {median(p99), "us"},
		"alloc_bytes_per_op": {median(alloc), "B"},
		"max_rss_mb":         {maxRSSMiB(), "MiB"},
	}
	rows := []struct{ name, samples string }{
		{"setup_s", fmt.Sprintf("median of %d passes", n)},
		{"ops_per_s", fmt.Sprintf("median of %d passes, %d ops each", n, perPass)},
		{"op_p50_us", fmt.Sprintf("median of %d per-pass p50s, %d ops in all", n, ops)},
		{"op_p99_us", fmt.Sprintf("median of %d per-pass p99s over %d ops, %d beyond each", n, perPass, perPass/100)},
		{"alloc_bytes_per_op", fmt.Sprintf("median of %d passes", n)},
		{"max_rss_mb", "peak of the process so far"},
	}
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-20s %14.6g %-6s %s\n", r.name, m[r.name].Value, m[r.name].Unit, r.samples)
	}
	fmt.Fprintf(stdout, "%-20s %14.6g %-6s %d failed of %d ops\n", "error_rate", float64(failed)/float64(ops), "ratio", failed, ops)
	return result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: m}
}

// traceRun cycles the workload's pass kinds, kind 0 untraced and the rest
// traced, computes the per-layer metrics and writes the spans out.
func traceRun(stdout io.Writer, w bench, budget time.Duration, dir, name, prov string) (result, error) {
	kinds := w.traceKinds()
	tracers := make([]*tracer, len(kinds))
	for k := 1; k < len(kinds); k++ {
		tracers[k] = newTracer(spanNames, spanLimit)
	}
	// A traced pass starts only if its tracer has room for as many spans
	// as the largest pass of that kind recorded so far.
	biggest := make([]int, len(kinds))
	byKind := make([][]passStats, len(kinds))
	_, err := repeat(budget, len(kinds), func(i int) bool {
		return !tracers[i%len(kinds)].full(biggest[i%len(kinds)])
	}, func(i int, ops []int64) (passResult, error) {
		k := i % len(kinds)
		before := 0
		if tracers[k] != nil {
			before = len(tracers[k].spans)
		}
		p, err := w.pass(tracers[k], k, true, ops)
		if tracers[k] != nil {
			biggest[k] = max(biggest[k], len(tracers[k].spans)-before)
		}
		if err == nil {
			byKind[k] = append(byKind[k], reduce(p))
		}
		return p, err
	})
	if err != nil {
		return result{}, err
	}
	if len(byKind[len(kinds)-1]) == 0 {
		return result{}, fmt.Errorf("traced run ended before every pass kind ran once")
	}

	values := w.layers(tracers)
	values["bench.trace_overhead"] = median(opsPerSecond(byKind[1])) / median(opsPerSecond(byKind[0]))
	m := make(map[string]metric, len(layerMetrics))
	for _, lm := range layerMetrics {
		m[lm.name] = metric{values[lm.name], lm.unit}
	}
	ops, failed := 0, 0
	for k := range byKind {
		fmt.Fprintf(stdout, "# pass kind %-16s %d passes\n", kinds[k], len(byKind[k]))
		for _, p := range byKind[k] {
			ops += p.ops
			failed += p.failed
		}
	}
	for k := 1; k < len(kinds); k++ {
		printSelfTimes(stdout, kinds[k], tracers[k])
	}
	sep := separation[name]
	verdict := "holds"
	if !sep.holds(values) {
		verdict = "DOES NOT HOLD"
	}
	fmt.Fprintf(stdout, "# layer separation: flitnet share %.3f, observability share %.3f; %s: %s\n",
		values["bench.flitnet_share"], values["bench.obs_share"], sep.claim, verdict)
	for _, lm := range layerMetrics {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", lm.name, m[lm.name].Value, lm.unit)
	}
	fmt.Fprintf(stdout, "%-32s %14.6g ratio (%d failed of %d ops)\n", "error_rate", float64(failed)/float64(ops), failed, ops)

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return result{}, err
	}
	for k := 1; k < len(kinds); k++ {
		// One file per workload and pass kind, overwritten by the next
		// traced run; the header's provenance names the seed.
		path := filepath.Join(dir, fmt.Sprintf("%s-%s.tsv", name, kinds[k]))
		if err := writeSpanFile(path, prov, tracers[k]); err != nil {
			return result{}, err
		}
		fmt.Fprintf(stdout, "# spans: %s (%d)\n", path, len(tracers[k].spans))
	}
	return result{Correct: failed == 0, Attempted: ops, Failed: failed, Metrics: m}, nil
}

func writeSpanFile(path, prov string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = writeSpans(f, "provenance "+prov, tr.spans, tr.names)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// printSelfTimes prints each span name's call count, mean duration and
// total self time, the breakdown the per-layer metrics are taken from.
func printSelfTimes(stdout io.Writer, kind string, tr *tracer) {
	agg := aggregate(tr.spans, tr.names)
	var all int64
	for _, l := range agg {
		all += l.self
	}
	fmt.Fprintf(stdout, "# self time by span, %s passes\n", kind)
	for _, name := range sortedNames(agg) {
		l := agg[name]
		fmt.Fprintf(stdout, "#   %-22s %9d calls %12.0f ns/call %7.3f s self %6.2f%%\n",
			name, l.calls, l.meanTotal(), float64(l.self)/1e9, 100*float64(l.self)/float64(all))
	}
}

func opsPerSecond(passes []passStats) []float64 {
	var out []float64
	for _, p := range passes {
		out = append(out, p.opsPerSec)
	}
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(v []int64) []int64 {
	s := append([]int64(nil), v...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile returns the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i])
}

// maxRSSMiB returns the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// heapAllocated returns the bytes allocated on the heap so far. ReadMemStats
// flushes every per-P cache first, so the figure is exact.
func heapAllocated(ms *runtime.MemStats) uint64 {
	runtime.ReadMemStats(ms)
	return ms.TotalAlloc
}

// provenance stamps a result with the host, the build and the inputs.
type provenance struct {
	CPU        string         `json:"cpu"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Go         string         `json:"go"`
	Revision   string         `json:"vcs_revision"`
	Modified   string         `json:"vcs_modified"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	Params     map[string]any `json:"params"`
}

func stamp(name string, seed int64, seconds, traced int, params map[string]any) provenance {
	p := provenance{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Revision:   "unknown",
		Modified:   "unknown",
		Workload:   name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
		Params:     params,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return p
}

// cpuModel reads the processor name the kernel reports.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
