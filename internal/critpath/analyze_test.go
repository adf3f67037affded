package critpath

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

// canonicalTrace runs one canonical scenario into a fresh hub and returns
// its trace.
func canonicalTrace(t testing.TB, name string, words int) []obs.TraceEvent {
	t.Helper()
	h := obs.NewHub()
	experiments.SetObserver(h)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical(name, words); err != nil {
		t.Fatalf("%s/%d: %v", name, words, err)
	}
	return h.Trace.Events()
}

// fatTreeTrace runs one point of netload's transit grid on a fat tree
// (4, 2): its uniform generator at seed 1, one Tick(1) per measured cycle,
// then the drain and receive loop, with a FlitScope tracing every worm.
func fatTreeTrace(t testing.TB, mode flitnet.Mode, load float64, cycles int) []obs.TraceEvent {
	t.Helper()
	topo, err := topology.NewFatTree(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	net, err := flitnet.New(flitnet.Config{Topology: topo, Mode: mode, BufferFlits: 3, InjectQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	h := obs.NewHub()
	net.SetFlitObserver(h.FlitScope())
	gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), load, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < cycles; c++ {
		for _, a := range gen.Cycle() {
			_ = net.Inject(network.Packet{Src: a.Src, Dst: a.Dst, Data: []network.Word{network.Word(c)}})
		}
		net.Tick(1)
	}
	if !net.TickUntilQuiet(200000) {
		t.Fatal("network never drained")
	}
	for node := 0; node < net.Nodes(); node++ {
		for {
			if _, ok := net.TryRecv(node); !ok {
				break
			}
		}
	}
	return h.Trace.Events()
}

// checkMatchesReference holds Analyze to the original map-based
// reconstruction: equal Analysis values, byte-identical text and JSON.
func checkMatchesReference(t testing.TB, events []obs.TraceEvent) *Analysis {
	t.Helper()
	got, want := Analyze(events), referenceAnalyze(events)
	var gotText, wantText bytes.Buffer
	if err := WriteText(&gotText, got); err != nil {
		t.Fatal(err)
	}
	if err := WriteText(&wantText, want); err != nil {
		t.Fatal(err)
	}
	if gotText.String() != wantText.String() {
		t.Fatalf("text report differs from the reference:\n--- got\n%s\n--- want\n%s", gotText.String(), wantText.String())
	}
	gotJSON, err := JSON(got)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := JSON(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Fatal("JSON report differs from the reference")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Analysis differs from the reference")
	}
	return got
}

// checkExact asserts the decomposition invariants: each message's
// segments and categories sum to its latency, and the critical path's
// categories sum to its span.
func checkExact(t testing.TB, a *Analysis) {
	t.Helper()
	for _, m := range a.Messages {
		var segs, cats uint64
		for _, s := range m.Segments {
			segs += s.To - s.From
		}
		for _, v := range m.ByCategory {
			cats += v
		}
		if segs != m.Latency || cats != m.Latency {
			t.Fatalf("msg %d: segments sum to %d, categories to %d, latency is %d", m.ID, segs, cats, m.Latency)
		}
	}
	var path uint64
	for _, v := range a.Critical.ByCategory {
		path += v
	}
	if path != a.Critical.Span {
		t.Fatalf("critical-path categories sum to %d, span is %d", path, a.Critical.Span)
	}
}

var flitModes = []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR}

// TestAnalyzeMatchesReference runs the dense Analyze and the reference on
// every canonical scenario at three message sizes and on the fat-tree
// transit grid in all three routing modes.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, name := range experiments.CanonicalScenarios() {
		for _, words := range []int{4, 64, 1024} {
			t.Run(fmt.Sprintf("%s/%d", name, words), func(t *testing.T) {
				checkExact(t, checkMatchesReference(t, canonicalTrace(t, name, words)))
			})
		}
	}
	for _, mode := range flitModes {
		for _, load := range []float64{0.02, 0.1, 0.3} {
			t.Run(fmt.Sprintf("fattree-%s/load%03d", mode, int(load*1000)), func(t *testing.T) {
				a := checkMatchesReference(t, fatTreeTrace(t, mode, load, 2000))
				if len(a.Messages) == 0 {
					t.Fatal("no messages reconstructed")
				}
				checkExact(t, a)
			})
		}
	}
	t.Run("empty", func(t *testing.T) { checkMatchesReference(t, nil) })
}

// TestAnalyzeAllocationBound keeps per-message and per-event allocations
// out of Analyze: on the load-0.3 CR fat-tree point (tens of thousands of
// events, thousands of messages) the count stays a small constant.
func TestAnalyzeAllocationBound(t *testing.T) {
	events := fatTreeTrace(t, flitnet.CR, 0.3, 2000)
	a := Analyze(events)
	if len(events) < 10000 || len(a.Messages) < 1000 {
		t.Fatalf("test setup: %d events, %d messages; want a large trace", len(events), len(a.Messages))
	}
	const bound = 256
	if allocs := testing.AllocsPerRun(5, func() { Analyze(events) }); allocs > bound {
		t.Fatalf("Analyze made %.0f allocations on %d events / %d messages, bound %d", allocs, len(events), len(a.Messages), bound)
	}
}

// Value pools the fuzzer picks event fields from: the zero MsgID, ids on
// both sides of the synthetic base, the network node, nodes past the dense
// node table and below -1, and names covering every classification rule.
var (
	fuzzMsgIDs = []uint64{0, 1, 2, 3, 7, syntheticBase - 1, syntheticBase, syntheticBase + 5, ^uint64(0)}
	fuzzNodes  = []int{-1, 0, 1, 2, 3, 15, denseNodes - 2, denseNodes, 1 << 40, -7}
	fuzzNames  = []string{
		"finite.start", "finite.packet.sent", "cmam.send", "net.backpressure",
		"net.dropped", "flit.inject", "flit.wait.queue", "flit.wait.blocked",
		"flit.kill", "flit.retry", "flit.backoff", "finite.nack", "reqreply.stale",
		"finite.duplicate", "flit.deliver", "",
	}
	fuzzProtos = []string{"cmam", "finite", "flitnet", "", "net", "reqreply"}
	fuzzPkts   = []uint64{0, 1, 2, 1, 3, 0, 1 << 40, 2}
)

// fuzzEvents decodes data into an emission-ordered trace, eight bytes per
// event. Instants advance a clock; spans may start before it (and end
// before the message's cursor), exercising the clamp.
func fuzzEvents(data []byte) []obs.TraceEvent {
	var events []obs.TraceEvent
	var clock uint64
	for len(data) >= 8 {
		b := data[:8]
		data = data[8:]
		e := obs.TraceEvent{
			MsgID: fuzzMsgIDs[int(b[0])%len(fuzzMsgIDs)],
			Node:  fuzzNodes[int(b[1])%len(fuzzNodes)],
			Name:  fuzzNames[int(b[2])%len(fuzzNames)],
			Proto: fuzzProtos[int(b[3])%len(fuzzProtos)],
			Axis:  obs.Axis(int(b[4]>>1) % numAxes),
			PktID: fuzzPkts[int(b[5])%len(fuzzPkts)],
			Seq:   uint64(len(events) + 1),
		}
		step := uint64(binary.LittleEndian.Uint16(b[6:8]))
		if b[4]&1 == 1 {
			e.Phase = obs.PhaseComplete
			back := step % 512
			if back > clock {
				back = clock
			}
			e.TS = clock - back
			e.Dur = step >> 9
		} else {
			e.Phase = obs.PhaseInstant
			clock += step % 300
			e.TS = clock
		}
		events = append(events, e)
	}
	return events
}

// FuzzAnalyze holds Analyze to the reference and the exactness invariants
// on arbitrary traces.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{})
	// MsgID 0, a message on node -1 and a synthetic id.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 5, 0, 1, 0, 1, 0, 0, 1, 3, 0, 6, 1, 5, 2, 2, 0, 9, 0})
	// A message crossing nodes, with repeated packets and a span that
	// starts before the cursor.
	f.Add([]byte{
		1, 1, 0, 1, 0, 1, 10, 0, 1, 2, 1, 1, 2, 3, 10, 0,
		1, 2, 9, 1, 1, 1, 0, 8, 1, 3, 11, 1, 0, 7, 5, 0,
	})
	// Node values past the dense table and below -1, the cmam rename.
	f.Add([]byte{
		2, 7, 2, 0, 0, 0, 1, 0, 2, 8, 0, 1, 0, 1, 1, 0,
		2, 9, 3, 4, 3, 2, 44, 1, 8, 6, 7, 2, 2, 4, 1, 0,
	})
	// A critical path whose links run through node values outside the
	// dense node table: each event's predecessor is the previous event on
	// its (far) node.
	f.Add([]byte{
		1, 7, 0, 0, 0, 0, 5, 0, 2, 7, 1, 0, 0, 0, 5, 0,
		2, 9, 2, 0, 0, 0, 5, 0, 3, 9, 3, 0, 0, 0, 5, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8*4096 {
			data = data[:8*4096]
		}
		checkExact(t, checkMatchesReference(t, fuzzEvents(data)))
	})
}

// BenchmarkAnalyze times Analyze and the reference on the load-0.3 CR
// fat-tree point.
func BenchmarkAnalyze(b *testing.B) {
	events := fatTreeTrace(b, flitnet.CR, 0.3, 2000)
	for _, bc := range []struct {
		name string
		fn   func([]obs.TraceEvent) *Analysis
	}{{"dense", Analyze}, {"reference", referenceAnalyze}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn(events)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(events)), "ns/event")
		})
	}
}
