package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestSelfTimes checks self time on a hand-built span tree with round
// numbers (ns):
//
//	op      [0, 100)   children a, b          self 100 - 30 - 40 = 30
//	  a     [10, 40)                          self 30
//	  b     [50, 90)   child c                self 40 - 10 = 30
//	    c   [60, 70)                          self 10
//	op      [100, 150) child a                self 50 - 20 = 30
//	  a     [110, 130)                        self 20
func TestSelfTimes(t *testing.T) {
	names := []string{"op", "a", "b", "c"}
	spans := []span{
		{start: 0, end: 100, parent: -1, name: 0, op: 1},
		{start: 10, end: 40, parent: 0, name: 1, op: 1},
		{start: 50, end: 90, parent: 0, name: 2, op: 1},
		{start: 60, end: 70, parent: 2, name: 3, op: 1},
		{start: 100, end: 150, parent: -1, name: 0, op: 2},
		{start: 110, end: 130, parent: 4, name: 1, op: 2},
	}
	want := []int64{30, 30, 30, 10, 30, 20}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time = %d, want %d", i, got[i], want[i])
		}
	}
	agg := aggregate(spans, names)
	for name, w := range map[string]struct{ calls, total, self int64 }{
		"op": {2, 150, 60},
		"a":  {2, 50, 50},
		"b":  {1, 40, 30},
		"c":  {1, 10, 10},
	} {
		l := agg[name]
		if int64(l.calls) != w.calls || l.total != w.total || l.self != w.self {
			t.Errorf("%s: %d calls, %d total, %d self; want %d, %d, %d",
				name, l.calls, l.total, l.self, w.calls, w.total, w.self)
		}
	}
}

// TestTracerNesting checks that begin/end record the parent and op links
// the self-time computation relies on.
func TestTracerNesting(t *testing.T) {
	tr := newTracer([]string{"op", "child"}, 16)
	tr.nextOp()
	tr.begin(0)
	tr.begin(1)
	tr.end()
	tr.begin(1)
	tr.end()
	tr.end()
	tr.nextOp()
	tr.begin(0)
	tr.end()
	wantParent := []int32{-1, 0, 0, -1}
	wantOp := []uint32{1, 1, 1, 2}
	if len(tr.spans) != len(wantParent) {
		t.Fatalf("%d spans, want %d", len(tr.spans), len(wantParent))
	}
	for i, s := range tr.spans {
		if s.parent != wantParent[i] || s.op != wantOp[i] || s.end < s.start {
			t.Errorf("span %d: parent %d op %d [%d, %d); want parent %d op %d", i, s.parent, s.op, s.start, s.end, wantParent[i], wantOp[i])
		}
	}
	if tr.full(12) || !tr.full(13) {
		t.Errorf("full: 4 spans of 16 recorded; room for 12 more, not 13")
	}
	var nilTracer *tracer
	nilTracer.begin(0) // the untraced state records nothing and does not panic
	nilTracer.end()
	nilTracer.nextOp()
}

// spec is the part of BENCHMARK.json the benchmark's output must match.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// runShort runs one workload for a second and decodes the result line.
func runShort(t *testing.T, name string, seed int64, traced int) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", name, "--seed", strconv.FormatInt(seed, 10), "--seconds", "1",
		"--trace", strconv.Itoa(traced), "--trace-dir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s: exit %d\n%s", name, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", name, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s seed %d trace %d: correct=%v failed=%d attempted=%d\n%s",
			name, seed, traced, res.Correct, res.Failed, res.Attempted, stderr.String())
	}
	return res, stdout.String()
}

// TestShortRunReportsEveryMetric runs every workload of BENCHMARK.json at
// the default seed, so the pinned digests are checked too, untraced and
// traced, and requires exactly the declared metrics with their units. The
// traced runs must also show the layer separation each workload exists for.
func TestShortRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s := loadSpec(t)
	for _, w := range s.Workloads {
		for traced, want := range [][]struct{ Name, Unit string }{s.EndToEnd, s.PerLayer} {
			res, out := runShort(t, w.Name, defaultSeed, traced)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %d: %d metrics, BENCHMARK.json declares %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace %d: metric %s = %+v (present %v), want unit %q", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
			if traced == 0 {
				if !strings.Contains(out, "error_rate") || !strings.Contains(out, "# provenance {") {
					t.Errorf("%s: output lacks the error_rate line or the provenance stamp:\n%s", w.Name, out)
				}
				continue
			}
			values := make(map[string]float64)
			for name, m := range res.Metrics {
				values[name] = m.Value
			}
			if sep := separation[w.Name]; !sep.holds(values) {
				t.Errorf("%s: %s does not hold: flitnet share %.3f, observability share %.3f",
					w.Name, sep.claim, values["bench.flitnet_share"], values["bench.obs_share"])
			}
		}
	}
}

// TestHeldOutSeed shows that every check that does not depend on the seed
// (delivery, twin equality, conservation, quiescence, reconciliation)
// passes on a seed the pinned digests were not recorded at.
func TestHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range loadSpec(t).Workloads {
		runShort(t, w.Name, 424242, 0)
	}
}

// TestFailedCheckCountsAndContinues breaks one pinned constant and checks
// that each message it makes wrong counts one failed op, without stopping
// the run.
func TestFailedCheckCountsAndContinues(t *testing.T) {
	saved := streamReuseDiscount["cr-stream"]
	streamReuseDiscount["cr-stream"] = saved + 1
	t.Cleanup(func() { streamReuseDiscount["cr-stream"] = saved })

	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "proto-mix", "--seconds", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	passes := res.Attempted / protoMsgsPerPass
	// Every cr-stream message but the first of each pass rides a reused
	// connection, so each of those now misses its prediction by one.
	want := passes * (protoMsgsPerPass/len(scenarios) - 1)
	if res.Correct || res.Failed != want {
		t.Errorf("correct=%v failed=%d over %d passes, want correct=false failed=%d", res.Correct, res.Failed, passes, want)
	}
}
