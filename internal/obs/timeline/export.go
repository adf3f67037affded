package timeline

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"unicode/utf8"

	"msglayer/internal/critpath"
	"msglayer/internal/obs"
)

// SchemaVersion identifies the exported timeline layout.
const SchemaVersion = 1

// Timeline is the exportable form of a sampler's closed windows. All
// content is derived from simulated time and the registry's deterministic
// ordering, so two runs of the same scenario marshal byte-identically.
type Timeline struct {
	Schema   int      `json:"schema"`
	Interval uint64   `json:"interval"`
	Windows  []Window `json:"windows"`
	Dropped  uint64   `json:"dropped,omitempty"`
	// Quantiles lists the windowed histogram quantiles beyond the default
	// p50/p90/p99 set (today: "p999" when Config.Quantile999 is set). Empty
	// for default-configured samplers, keeping their marshaled form and
	// digest identical to earlier schema-1 timelines.
	Quantiles []string `json:"quantiles,omitempty"`
	// Digest is the FNV-1a 64 hash of the timeline content, rendered in
	// hex; DigestValue is the same hash as a number (for perfreg
	// snapshots), excluded from the marshaled form.
	Digest      string `json:"digest"`
	DigestValue uint64 `json:"-"`
}

// Window is one closed sampling window: the cycle range (start, end] and
// every series that moved in it. Unchanged series are omitted, so idle
// windows are empty.
type Window struct {
	Index     int             `json:"index"`
	Start     uint64          `json:"start"`
	End       uint64          `json:"end"`
	Events    uint64          `json:"events"`
	Counters  []CounterDelta  `json:"counters,omitempty"`
	Levels    []LevelSample   `json:"levels,omitempty"`
	Hists     []HistDelta     `json:"hists,omitempty"`
	Breakdown []BreakdownCell `json:"breakdown,omitempty"`
}

// CounterDelta is one counter's increment within a window, with its rate
// in integer events per thousand cycles (exact division by the window
// width, so it carries no float formatting into the byte-compared output).
type CounterDelta struct {
	Key           string `json:"key"`
	Delta         uint64 `json:"delta"`
	RatePerKCycle uint64 `json:"rate_per_kcycle"`
}

// LevelSample is a gauge's value at the window close. Windows where the
// gauge did not change carry no sample; the last stored value holds.
type LevelSample struct {
	Key   string `json:"key"`
	Value int64  `json:"value"`
}

// HistDelta is one histogram's within-window activity, with quantiles of
// the window's own observations (not the cumulative distribution),
// resolved from the bucket-count deltas. Quantile ranks falling in the
// +Inf overflow bucket report the last finite bound — a lower bound, since
// the window's true maximum is not tracked.
type HistDelta struct {
	Key   string `json:"key"`
	Count uint64 `json:"count"`
	Sum   uint64 `json:"sum"`
	P50   uint64 `json:"p50"`
	P90   uint64 `json:"p90"`
	P99   uint64 `json:"p99"`
	// P999 is populated (and folded into the digest) only when the sampler
	// was configured with Quantile999; see Timeline.Quantiles.
	P999 uint64 `json:"p999,omitempty"`
}

// BreakdownCell is one Role×Feature×Category aggregate of a window's
// protocol events, the per-window form of critpath's attribution table.
// Role here is a static heuristic over the event's node label (negative =
// network, node 0 = source, otherwise destination — the canonical
// experiments originate at node 0), not the per-message reconstruction
// critpath performs; Category classifies the event name alone.
type BreakdownCell struct {
	Role     string `json:"role"`
	Axis     string `json:"axis"`
	Category string `json:"category"`
	Events   uint64 `json:"events"`
}

// Snapshot renders the closed windows into their exportable form and
// computes the digest. It is a cold path and allocates freely.
func (s *Sampler) Snapshot() *Timeline {
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
		tl.Windows = append(tl.Windows, s.SnapshotWindow(wi))
	}
	tl.DigestValue = tl.digest()
	tl.Digest = fmt.Sprintf("%016x", tl.DigestValue)
	return tl
}

// SnapshotWindow renders one stored window into its exportable form. Like
// Snapshot it is a cold path; the SLO monitor uses it to materialize just
// the pre-violation and violation windows for blame. Key strings and
// breakdown cells are derived once per series, so a window costs no string
// formatting or name classification.
func (s *Sampler) SnapshotWindow(wi int) Window {
	s.syncLabels()
	w := s.windows[wi]
	win := Window{Index: wi, Start: w.start, End: w.end}
	width := w.end - w.start
	var cells [numCells]uint64
	var present [numCells]bool
	if cds := s.cds[w.c0:w.c1]; len(cds) > 0 {
		win.Counters = make([]CounterDelta, len(cds))
		for i, d := range cds {
			win.Counters[i] = CounterDelta{
				Key:           s.ctrLabels[d.series],
				Delta:         d.delta,
				RatePerKCycle: d.delta * 1000 / width,
			}
			if c := s.ctrCells[d.series]; c != noCell {
				win.Events += d.delta
				cells[c] += d.delta
				present[c] = true
			}
		}
	}
	if lss := s.lss[w.l0:w.l1]; len(lss) > 0 {
		win.Levels = make([]LevelSample, len(lss))
		for i, l := range lss {
			win.Levels[i] = LevelSample{Key: s.lvlLabels[l.series], Value: l.value}
		}
	}
	if hds := s.hds[w.h0:w.h1]; len(hds) > 0 {
		win.Hists = make([]HistDelta, len(hds))
		for i, h := range hds {
			bounds := s.hst[h.series].h.Bounds()
			buckets := s.buckets[h.b0 : int(h.b0)+len(bounds)+1]
			hd := HistDelta{
				Key:   s.hstLabels[h.series],
				Count: h.dn,
				Sum:   h.dsum,
				P50:   QuantileFromDeltas(bounds, buckets, h.dn, 0.50),
				P90:   QuantileFromDeltas(bounds, buckets, h.dn, 0.90),
				P99:   QuantileFromDeltas(bounds, buckets, h.dn, 0.99),
			}
			if s.q999 {
				hd.P999 = QuantileFromDeltas(bounds, buckets, h.dn, 0.999)
			}
			win.Hists[i] = hd
		}
	}
	win.Breakdown = breakdownCells(&cells, &present)
	sort.Slice(win.Counters, func(i, j int) bool { return win.Counters[i].Key < win.Counters[j].Key })
	sort.Slice(win.Levels, func(i, j int) bool { return win.Levels[i].Key < win.Levels[j].Key })
	sort.Slice(win.Hists, func(i, j int) bool { return win.Hists[i].Key < win.Hists[j].Key })
	return win
}

// noCell marks a counter outside the per-window breakdown.
const noCell = -1

// syncLabels derives key strings (and breakdown cells) for series tracked
// since the last call. Series appear only on the rescan cold path, so this
// does string work once per series.
func (s *Sampler) syncLabels() {
	for _, k := range s.ctrKeys[len(s.ctrLabels):] {
		s.ctrLabels = append(s.ctrLabels, k.String())
		cell := int8(noCell)
		if k.Name == "protocol_events_total" {
			cell = cellOf(k)
		}
		s.ctrCells = append(s.ctrCells, cell)
	}
	for _, k := range s.lvlKeys[len(s.lvlLabels):] {
		s.lvlLabels = append(s.lvlLabels, k.String())
	}
	for _, k := range s.hstKeys[len(s.hstLabels):] {
		s.hstLabels = append(s.hstLabels, k.String())
	}
}

// The breakdown's cell space: every role, axis and category, indexed in
// the (role, axis, category) order the cells are exported in.
const (
	numRoles = int(critpath.RoleNetwork) + 1
	numAxes  = int(obs.AxisFaultTol) + 1
	numCats  = int(critpath.CatRetransmission) + 1
	numCells = numRoles * numAxes * numCats
)

// cellOf classifies one protocol_events_total series key into its cell.
func cellOf(k obs.Key) int8 {
	role := critpath.RoleDest
	switch {
	case k.Node < 0:
		role = critpath.RoleNetwork
	case k.Node == 0:
		role = critpath.RoleSource
	}
	axis, cat := obs.AxisForEvent(k.Event), critpath.ClassifyName(k.Event)
	return int8((int(role)*numAxes+int(axis))*numCats + int(cat))
}

// breakdownCells renders the present cells in role, axis, category order.
func breakdownCells(cells *[numCells]uint64, present *[numCells]bool) []BreakdownCell {
	var out []BreakdownCell
	for c, ok := range present {
		if !ok {
			continue
		}
		out = append(out, BreakdownCell{
			Role:     critpath.Role(c / (numAxes * numCats)).String(),
			Axis:     obs.Axis(c / numCats % numAxes).String(),
			Category: critpath.Category(c % numCats).String(),
			Events:   cells[c],
		})
	}
	return out
}

// QuantileFromDeltas is Histogram.Quantile over one window's bucket-count
// deltas: the smallest bound whose cumulative windowed count covers rank
// ceil(q*n). Overflow ranks report the last finite bound (the window's
// true maximum is not tracked). Exported so the SLO monitor evaluates
// live windows with exactly the arithmetic the exported timeline carries.
func QuantileFromDeltas(bounds, buckets []uint64, n uint64, q float64) uint64 {
	if n == 0 {
		return 0
	}
	if !(q >= 0) {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank == 0 {
		rank = 1
	}
	var acc uint64
	for i, c := range buckets {
		acc += c
		if acc >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			break
		}
	}
	return bounds[len(bounds)-1]
}

// FNV-1a 64 parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fnv64 uint64

func (h *fnv64) u64(v uint64) {
	x := uint64(*h)
	for i := 0; i < 8; i++ {
		x ^= v & 0xff
		x *= fnvPrime
		v >>= 8
	}
	*h = fnv64(x)
}

func (h *fnv64) str(s string) {
	x := uint64(*h)
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= fnvPrime
	}
	*h = fnv64(x)
	h.u64(uint64(len(s)))
}

// digest hashes the timeline content (FNV-1a 64). Breakdown cells are
// derived from the counters and excluded. Extended quantiles (and their
// marker list) are hashed only when present, so default-configured
// timelines keep their historical digests.
func (tl *Timeline) digest() uint64 {
	h := fnv64(fnvOffset)
	h.u64(uint64(tl.Schema))
	h.u64(tl.Interval)
	h.u64(tl.Dropped)
	h.u64(uint64(len(tl.Windows)))
	extended := len(tl.Quantiles) > 0
	if extended {
		for _, q := range tl.Quantiles {
			h.str(q)
		}
	}
	for _, w := range tl.Windows {
		h.u64(w.Start)
		h.u64(w.End)
		for _, c := range w.Counters {
			h.str(c.Key)
			h.u64(c.Delta)
		}
		for _, l := range w.Levels {
			h.str(l.Key)
			h.u64(uint64(l.Value))
		}
		for _, hd := range w.Hists {
			h.str(hd.Key)
			h.u64(hd.Count)
			h.u64(hd.Sum)
			h.u64(hd.P50)
			h.u64(hd.P90)
			h.u64(hd.P99)
			if extended {
				h.u64(hd.P999)
			}
		}
	}
	return uint64(h)
}

// WriteJSON renders the timeline as indented JSON: exactly the bytes a
// json.Encoder with SetIndent("", "  ") writes for it (field order,
// omitempty, HTML-safe string escaping, trailing newline), emitted
// directly for the fixed schema-1 layout.
func WriteJSON(w io.Writer, tl *Timeline) error {
	b := make([]byte, 0, jsonChunk+4096)
	b = append(b, "{\n  \"schema\": "...)
	b = strconv.AppendInt(b, int64(tl.Schema), 10)
	b = append(b, ",\n  \"interval\": "...)
	b = strconv.AppendUint(b, tl.Interval, 10)
	b = append(b, ",\n  \"windows\": "...)
	switch {
	case tl.Windows == nil:
		b = append(b, "null"...)
	case len(tl.Windows) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range tl.Windows {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendWindowJSON(b, &tl.Windows[i])
			if len(b) >= jsonChunk {
				if _, err := w.Write(b); err != nil {
					return err
				}
				b = b[:0]
			}
		}
		b = append(b, "\n  ]"...)
	}
	if tl.Dropped != 0 {
		b = append(b, ",\n  \"dropped\": "...)
		b = strconv.AppendUint(b, tl.Dropped, 10)
	}
	if len(tl.Quantiles) > 0 {
		b = append(b, ",\n  \"quantiles\": ["...)
		for i, q := range tl.Quantiles {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n    "...)
			b = appendJSONString(b, q)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"digest\": "...)
	b = appendJSONString(b, tl.Digest)
	b = append(b, "\n}\n"...)
	_, err := w.Write(b)
	return err
}

// jsonChunk is the buffered size at which WriteJSON hands bytes to the
// writer, bounding its buffer on long timelines.
const jsonChunk = 64 << 10

// appendWindowJSON appends one element of the windows array, at the
// indentation depth it has there.
func appendWindowJSON(b []byte, w *Window) []byte {
	b = append(b, "\n    {\n      \"index\": "...)
	b = strconv.AppendInt(b, int64(w.Index), 10)
	b = append(b, ",\n      \"start\": "...)
	b = strconv.AppendUint(b, w.Start, 10)
	b = append(b, ",\n      \"end\": "...)
	b = strconv.AppendUint(b, w.End, 10)
	b = append(b, ",\n      \"events\": "...)
	b = strconv.AppendUint(b, w.Events, 10)
	if len(w.Counters) > 0 {
		b = append(b, ",\n      \"counters\": ["...)
		for i := range w.Counters {
			c := &w.Counters[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        {\n          \"key\": "...)
			b = appendJSONString(b, c.Key)
			b = append(b, ",\n          \"delta\": "...)
			b = strconv.AppendUint(b, c.Delta, 10)
			b = append(b, ",\n          \"rate_per_kcycle\": "...)
			b = strconv.AppendUint(b, c.RatePerKCycle, 10)
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	if len(w.Levels) > 0 {
		b = append(b, ",\n      \"levels\": ["...)
		for i := range w.Levels {
			l := &w.Levels[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        {\n          \"key\": "...)
			b = appendJSONString(b, l.Key)
			b = append(b, ",\n          \"value\": "...)
			b = strconv.AppendInt(b, l.Value, 10)
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	if len(w.Hists) > 0 {
		b = append(b, ",\n      \"hists\": ["...)
		for i := range w.Hists {
			h := &w.Hists[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        {\n          \"key\": "...)
			b = appendJSONString(b, h.Key)
			b = append(b, ",\n          \"count\": "...)
			b = strconv.AppendUint(b, h.Count, 10)
			b = append(b, ",\n          \"sum\": "...)
			b = strconv.AppendUint(b, h.Sum, 10)
			b = append(b, ",\n          \"p50\": "...)
			b = strconv.AppendUint(b, h.P50, 10)
			b = append(b, ",\n          \"p90\": "...)
			b = strconv.AppendUint(b, h.P90, 10)
			b = append(b, ",\n          \"p99\": "...)
			b = strconv.AppendUint(b, h.P99, 10)
			if h.P999 != 0 {
				b = append(b, ",\n          \"p999\": "...)
				b = strconv.AppendUint(b, h.P999, 10)
			}
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	if len(w.Breakdown) > 0 {
		b = append(b, ",\n      \"breakdown\": ["...)
		for i := range w.Breakdown {
			c := &w.Breakdown[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, "\n        {\n          \"role\": "...)
			b = appendJSONString(b, c.Role)
			b = append(b, ",\n          \"axis\": "...)
			b = appendJSONString(b, c.Axis)
			b = append(b, ",\n          \"category\": "...)
			b = appendJSONString(b, c.Category)
			b = append(b, ",\n          \"events\": "...)
			b = strconv.AppendUint(b, c.Events, 10)
			b = append(b, "\n        }"...)
		}
		b = append(b, "\n      ]"...)
	}
	return append(b, "\n    }"...)
}

// appendJSONString appends s as a JSON string literal with encoding/json's
// default escaping: quote, backslash and control bytes escaped, <, > and &
// as \u003c-style escapes, U+2028 and U+2029 escaped, and each invalid
// UTF-8 byte replaced by \ufffd.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// CSVHeader returns the column header for the flat CSV form, with any
// caller columns (scenario identity) prepended.
func CSVHeader(prefix ...string) []string {
	return append(append([]string{}, prefix...),
		"window", "start", "end", "kind", "key", "value", "extra")
}

// AppendCSV writes the timeline's windows as flat CSV rows: one row per
// changed series per window, kind in {counter, level, hist, breakdown}.
// For counters, extra is the rate per thousand cycles; for hists, the
// windowed quantiles. prefix values (scenario identity) lead every row.
func AppendCSV(w *csv.Writer, prefix []string, tl *Timeline) error {
	extended := len(tl.Quantiles) > 0
	row := func(win Window, kind, key, value, extra string) error {
		r := append(append([]string{}, prefix...),
			strconv.Itoa(win.Index),
			strconv.FormatUint(win.Start, 10),
			strconv.FormatUint(win.End, 10),
			kind, key, value, extra)
		return w.Write(r)
	}
	for _, win := range tl.Windows {
		for _, c := range win.Counters {
			if err := row(win, "counter", c.Key, strconv.FormatUint(c.Delta, 10),
				strconv.FormatUint(c.RatePerKCycle, 10)); err != nil {
				return err
			}
		}
		for _, l := range win.Levels {
			if err := row(win, "level", l.Key, strconv.FormatInt(l.Value, 10), ""); err != nil {
				return err
			}
		}
		for _, h := range win.Hists {
			extra := fmt.Sprintf("p50=%d;p90=%d;p99=%d", h.P50, h.P90, h.P99)
			if extended {
				extra += fmt.Sprintf(";p999=%d", h.P999)
			}
			if err := row(win, "hist", h.Key, strconv.FormatUint(h.Count, 10), extra); err != nil {
				return err
			}
		}
		for _, b := range win.Breakdown {
			key := b.Role + "/" + b.Axis + "/" + b.Category
			if err := row(win, "breakdown", key, strconv.FormatUint(b.Events, 10), ""); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteCSV renders the timeline as a standalone CSV document.
func WriteCSV(w io.Writer, tl *Timeline) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(CSVHeader()); err != nil {
		return err
	}
	if err := AppendCSV(cw, nil, tl); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}
