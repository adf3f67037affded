package cost

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

func TestNewEventIsIdempotent(t *testing.T) {
	a, b := NewEvent("event.test.same"), NewEvent("event.test.same")
	if a != b {
		t.Errorf("same name gave %+v and %+v", a, b)
	}
	if c := NewEvent("event.test.other"); c == a {
		t.Errorf("different names share handle %+v", c)
	}
	if a.Name() != "event.test.same" {
		t.Errorf("Name = %q", a.Name())
	}
}

// TestNewEventConcurrent registers overlapping names from many goroutines
// (run under -race): every caller of a name must get the same id, and
// distinct names distinct ids.
func TestNewEventConcurrent(t *testing.T) {
	const workers, names = 8, 50
	got := make([][]Event, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = make([]Event, names)
			for i := 0; i < names; i++ {
				// Each worker walks the names in its own order.
				k := (i*7 + w*13) % names
				got[w][k] = NewEvent(fmt.Sprintf("event.test.concurrent.%d", k))
			}
		}(w)
	}
	wg.Wait()
	ids := map[int32]int{}
	for k := 0; k < names; k++ {
		for w := 1; w < workers; w++ {
			if got[w][k] != got[0][k] {
				t.Fatalf("name %d: worker %d got %+v, worker 0 %+v", k, w, got[w][k], got[0][k])
			}
		}
		if prev, dup := ids[got[0][k].id]; dup {
			t.Fatalf("names %d and %d share id %d", prev, k, got[0][k].id)
		}
		ids[got[0][k].id] = k
	}
}

func TestZeroEventCountsNothing(t *testing.T) {
	g := NewGauge()
	g.CountEvent(Event{})
	if names := g.EventNames(); len(names) != 0 {
		t.Errorf("EventNames = %v", names)
	}
}

// mapGauge is a plain string-keyed event store: the reference for the
// gauge's observable event semantics.
type mapGauge map[string]uint64

func (m mapGauge) names() []string {
	out := []string{}
	for n, k := range m {
		if k > 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// TestEventCountsMatchMapSemantics applies random event traffic, Add,
// Snapshot, Diff and Reset to gauges and to map references, comparing
// Events and EventNames after every step.
func TestEventCountsMatchMapSemantics(t *testing.T) {
	var evs []Event
	for i := 0; i < 6; i++ {
		evs = append(evs, NewEvent(fmt.Sprintf("event.test.sem.%d", i)))
	}
	all := append([]string{"event.test.sem.never"}, "")
	for _, e := range evs {
		all = append(all, e.Name())
	}
	check := func(step int, what string, g *Gauge, m mapGauge) {
		t.Helper()
		for _, n := range all {
			if g.Events(n) != m[n] {
				t.Fatalf("step %d %s: Events(%q) = %d, want %d", step, what, n, g.Events(n), m[n])
			}
		}
		if got, want := g.EventNames(), m.names(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d %s: EventNames = %v, want %v", step, what, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	g, m := NewGauge(), mapGauge{}
	snap, snapM := g.Snapshot(), mapGauge{}
	for step := 0; step < 2000; step++ {
		switch r := rng.Intn(100); {
		case r < 80:
			e := evs[rng.Intn(len(evs))]
			g.CountEvent(e)
			m[e.Name()]++
		case r < 88:
			snap, snapM = g.Snapshot(), mapGauge{}
			for n, k := range m {
				snapM[n] = k
			}
		case r < 94:
			d, dm := g.Diff(snap), mapGauge{}
			for n, k := range m {
				if k > snapM[n] {
					dm[n] = k - snapM[n]
				}
			}
			check(step, "diff", d, dm)
			sum := d.Snapshot()
			sum.Add(snap)
			check(step, "diff+snapshot", sum, m)
		case r < 97:
			other := NewGauge()
			e := evs[rng.Intn(len(evs))]
			other.CountEvent(e)
			g.Add(other)
			m[e.Name()]++
		default:
			g.Reset()
			m = mapGauge{}
			snap, snapM = g.Snapshot(), mapGauge{}
		}
		check(step, "gauge", g, m)
	}
}
