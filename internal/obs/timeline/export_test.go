package timeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"testing"

	"msglayer/internal/critpath"
	"msglayer/internal/experiments"
	"msglayer/internal/flitnet"
	"msglayer/internal/network"
	"msglayer/internal/obs"
	"msglayer/internal/topology"
	"msglayer/internal/workload"
)

// This file keeps the original exporters as test oracles: the
// encoding/json writer, and the snapshot that formats every key and
// classifies every event name per window delta.

// referenceWriteJSON is the original WriteJSON.
func referenceWriteJSON(w io.Writer, tl *Timeline) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tl)
}

// referenceCell aggregates breakdown cells in a deterministic numeric order.
type referenceCell struct {
	role critpath.Role
	axis obs.Axis
	cat  critpath.Category
}

// referenceSnapshot is the original Snapshot.
func referenceSnapshot(s *Sampler) *Timeline {
	tl := &Timeline{
		Schema:   SchemaVersion,
		Interval: s.interval,
		Windows:  make([]Window, 0, len(s.windows)),
		Dropped:  s.dropped,
	}
	if s.q999 {
		tl.Quantiles = []string{"p999"}
	}
	for wi := range s.windows {
		tl.Windows = append(tl.Windows, referenceSnapshotWindow(s, wi))
	}
	tl.DigestValue = tl.digest()
	tl.Digest = fmt.Sprintf("%016x", tl.DigestValue)
	return tl
}

// referenceSnapshotWindow is the original SnapshotWindow.
func referenceSnapshotWindow(s *Sampler, wi int) Window {
	w := s.windows[wi]
	win := Window{Index: wi, Start: w.start, End: w.end}
	width := w.end - w.start
	cells := make(map[referenceCell]uint64)
	for _, d := range s.cds[w.c0:w.c1] {
		k := s.ctrKeys[d.series]
		win.Counters = append(win.Counters, CounterDelta{
			Key:           k.String(),
			Delta:         d.delta,
			RatePerKCycle: d.delta * 1000 / width,
		})
		if k.Name == "protocol_events_total" {
			win.Events += d.delta
			role := critpath.RoleDest
			switch {
			case k.Node < 0:
				role = critpath.RoleNetwork
			case k.Node == 0:
				role = critpath.RoleSource
			}
			cells[referenceCell{role: role, axis: obs.AxisForEvent(k.Event), cat: critpath.ClassifyName(k.Event)}] += d.delta
		}
	}
	for _, l := range s.lss[w.l0:w.l1] {
		win.Levels = append(win.Levels, LevelSample{Key: s.lvlKeys[l.series].String(), Value: l.value})
	}
	for _, h := range s.hds[w.h0:w.h1] {
		bounds := s.hst[h.series].h.Bounds()
		buckets := s.buckets[h.b0 : int(h.b0)+len(bounds)+1]
		hd := HistDelta{
			Key:   s.hstKeys[h.series].String(),
			Count: h.dn,
			Sum:   h.dsum,
			P50:   QuantileFromDeltas(bounds, buckets, h.dn, 0.50),
			P90:   QuantileFromDeltas(bounds, buckets, h.dn, 0.90),
			P99:   QuantileFromDeltas(bounds, buckets, h.dn, 0.99),
		}
		if s.q999 {
			hd.P999 = QuantileFromDeltas(bounds, buckets, h.dn, 0.999)
		}
		win.Hists = append(win.Hists, hd)
	}
	if len(cells) > 0 {
		keys := make([]referenceCell, 0, len(cells))
		for k := range cells {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			a, b := keys[i], keys[j]
			if a.role != b.role {
				return a.role < b.role
			}
			if a.axis != b.axis {
				return a.axis < b.axis
			}
			return a.cat < b.cat
		})
		for _, k := range keys {
			win.Breakdown = append(win.Breakdown, BreakdownCell{
				Role: k.role.String(), Axis: k.axis.String(), Category: k.cat.String(), Events: cells[k],
			})
		}
	}
	sort.Slice(win.Counters, func(i, j int) bool { return win.Counters[i].Key < win.Counters[j].Key })
	sort.Slice(win.Levels, func(i, j int) bool { return win.Levels[i].Key < win.Levels[j].Key })
	sort.Slice(win.Hists, func(i, j int) bool { return win.Hists[i].Key < win.Hists[j].Key })
	return win
}

// flitSampler runs one point of netload's transit grid on a fat tree
// (4, 2) with a FlitScope and a sampler riding the cycle listener, flushed
// at the final cycle, as netload -timeline-out does.
func flitSampler(t testing.TB, mode flitnet.Mode, load float64, cfg Config) *Sampler {
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
	s := New(h.Metrics, cfg)
	net.SetCycleListener(s.Advance)
	gen, err := workload.NewGenerator(workload.Uniform{}, net.Nodes(), load, 1)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 2000; c++ {
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
	s.Flush(net.Cycle())
	if err := s.Reconcile(); err != nil && cfg.MaxWindows == 0 {
		t.Fatal(err)
	}
	return s
}

// checkJSONMatchesEncoder byte-compares WriteJSON with the encoding/json
// oracle.
func checkJSONMatchesEncoder(t testing.TB, tl *Timeline) {
	t.Helper()
	var got, want bytes.Buffer
	if err := WriteJSON(&got, tl); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteJSON(&want, tl); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(0, i-80)
		t.Fatalf("WriteJSON differs from json.Encoder at byte %d (%d vs %d bytes):\n--- got\n%s\n--- want\n%s",
			i, len(g), len(w), g[lo:min(len(g), i+80)], w[lo:min(len(w), i+80)])
	}
}

// TestTimelineJSONMatchesEncoder holds Snapshot to the original snapshot
// and WriteJSON to json.Encoder's bytes on the fat-tree transit grid in all
// three routing modes, on the canonical protocol scenarios, on p99.9
// timelines, and on edge-case documents.
func TestTimelineJSONMatchesEncoder(t *testing.T) {
	check := func(t *testing.T, s *Sampler) {
		tl := s.Snapshot()
		if want := referenceSnapshot(s); !reflect.DeepEqual(tl, want) {
			t.Fatal("Snapshot differs from the reference snapshot")
		}
		checkJSONMatchesEncoder(t, tl)
	}
	for _, mode := range []flitnet.Mode{flitnet.Deterministic, flitnet.Adaptive, flitnet.CR} {
		for _, load := range []float64{0.02, 0.1, 0.3} {
			t.Run(fmt.Sprintf("fattree-%s/load%03d", mode, int(load*1000)), func(t *testing.T) {
				check(t, flitSampler(t, mode, load, Config{}))
			})
		}
	}
	// The protocol scenarios in one hub on the round clock, as critpath
	// -timeline-out runs them: node-level events on the source and
	// destination roles, and transfer-latency histograms.
	t.Run("canonical", func(t *testing.T) {
		h := obs.NewHub()
		s := New(h.Metrics, Config{Interval: 16, Quantile999: true})
		h.SetTickListener(s.Advance)
		experiments.SetObserver(h)
		defer experiments.SetObserver(nil)
		for _, name := range experiments.CanonicalScenarios() {
			if _, err := experiments.RunCanonical(name, 64); err != nil {
				t.Fatal(err)
			}
		}
		s.Flush(h.Round() + 1)
		if err := s.Reconcile(); err != nil {
			t.Fatal(err)
		}
		check(t, s)
	})
	t.Run("p999", func(t *testing.T) {
		check(t, flitSampler(t, flitnet.CR, 0.3, Config{Quantile999: true, Interval: 50}))
		s := q999Fixture(t, Config{Interval: 10, Quantile999: true})
		check(t, s)
		if !bytes.Contains(mustJSON(t, s.Snapshot()), []byte(`"p999": `)) {
			t.Fatal("p99.9 timeline carries no p999 field")
		}
	})
	t.Run("dropped", func(t *testing.T) { check(t, flitSampler(t, flitnet.CR, 0.1, Config{MaxWindows: 3})) })
	// Two series whose keys render alike (negative nodes carry no label):
	// the snapshot must keep the original order for the tie.
	t.Run("tied-keys", func(t *testing.T) {
		reg := obs.NewRegistry()
		s := New(reg, Config{Interval: 10})
		for i, node := range []int{-2, 3, -1, -5} {
			reg.Counter(k("protocol_events_total", "p", "x.retry", node)).Add(uint64(i + 1))
			reg.Level(k("lvl", "p", "", node)).Set(int64(i))
			reg.Histogram(k("h", "p", "", node), nil).Observe(uint64(i))
			s.Advance(uint64(10 * (i + 1)))
		}
		s.Flush(45)
		check(t, s)
	})
	for name, tl := range map[string]*Timeline{
		"nil-windows":   {Schema: SchemaVersion, Interval: 7, Digest: "x"},
		"empty-windows": {Schema: SchemaVersion, Interval: 7, Windows: []Window{}, Dropped: 2},
		"bare-window":   {Windows: []Window{{Index: 1}, {Counters: []CounterDelta{}}}, Quantiles: []string{"a", "b"}},
	} {
		t.Run(name, func(t *testing.T) { checkJSONMatchesEncoder(t, tl) })
	}
}

func mustJSON(t testing.TB, tl *Timeline) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := WriteJSON(&b, tl); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestWriteJSONChunksLongTimelines: a timeline larger than the writer's
// chunk arrives in several writes whose concatenation is the document, and
// a failing writer's error is returned.
func TestWriteJSONChunksLongTimelines(t *testing.T) {
	tl := flitSampler(t, flitnet.CR, 0.3, Config{}).Snapshot()
	var cw chunkWriter
	if err := WriteJSON(&cw, tl); err != nil {
		t.Fatal(err)
	}
	if cw.writes < 2 {
		t.Fatalf("a %d-byte timeline arrived in %d write(s)", cw.buf.Len(), cw.writes)
	}
	checkJSONMatchesEncoder(t, tl)
	if !bytes.Equal(cw.buf.Bytes(), mustJSON(t, tl)) {
		t.Fatal("chunked output differs")
	}
	if err := WriteJSON(failWriter{}, tl); err != io.ErrShortWrite {
		t.Fatalf("failing writer: got %v", err)
	}
}

type chunkWriter struct {
	buf    bytes.Buffer
	writes int
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.buf.Write(p)
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, io.ErrShortWrite }

// FuzzTimelineJSON holds WriteJSON to json.Encoder's bytes on documents
// whose strings need escaping and whose optional fields vary.
func FuzzTimelineJSON(f *testing.F) {
	f.Add(`proto_events{node="1",event="a\"b"}`, uint64(3), byte(0))
	f.Add("<script>&amp;", uint64(0), byte(0xff))
	f.Add("line\u2028para\u2029end", uint64(1<<63), byte(0x55))
	f.Add("bad\xffutf8\xc3", uint64(42), byte(0xaa))
	f.Add("ctl\x00\x01\b\f\n\r\t\x1f\x7f\\", uint64(9), byte(0x0f))
	f.Fuzz(func(t *testing.T, key string, n uint64, flags byte) {
		bit := func(i uint) bool { return flags&(1<<i) != 0 }
		win := Window{Index: int(n % 1000), Start: n, End: n + 100, Events: n / 3}
		if bit(0) {
			win.Counters = []CounterDelta{{Key: key, Delta: n, RatePerKCycle: n / 7}, {Key: key + key, Delta: 1}}
		}
		if bit(1) {
			win.Levels = []LevelSample{{Key: key, Value: -int64(n >> 1)}}
		}
		if bit(2) {
			win.Hists = []HistDelta{{Key: key, Count: n, Sum: n * 2, P50: 1, P90: 2, P99: 3, P999: n % 5}}
		}
		if bit(3) {
			win.Breakdown = []BreakdownCell{{Role: key, Axis: "base", Category: key, Events: n}}
		}
		tl := &Timeline{Schema: SchemaVersion, Interval: n, Digest: key}
		if bit(4) {
			tl.Windows = []Window{win, {Index: 1}}
		} else if bit(5) {
			tl.Windows = []Window{}
		}
		if bit(6) {
			tl.Dropped = n
			tl.Quantiles = []string{key}
		}
		checkJSONMatchesEncoder(t, tl)
	})
}
