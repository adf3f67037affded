package cost

import "sync"

// Event is an interned protocol event name (packet sent, ack received,
// out-of-order arrival, ...). Protocols declare their events once, at
// package level, with NewEvent; counting one is then a slice increment in
// the gauge rather than a string-keyed map update on every packet.
//
// The zero Event is not registered; counting it records nothing.
type Event struct {
	id   int32 // 1-based registry index; 0 means unregistered
	name string
}

// Name returns the event's name.
func (e Event) Name() string { return e.name }

// events is the process-wide event registry. Ids are dense and assigned in
// first-registration order; they never leave the process, so reports stay
// keyed (and sorted) by name.
var events struct {
	mu    sync.Mutex
	ids   map[string]int32
	names []string // names[id-1]
}

// NewEvent returns the handle for a named event, registering the name on
// first use. Calls with the same name return equal handles; it is safe for
// concurrent use.
func NewEvent(name string) Event {
	events.mu.Lock()
	defer events.mu.Unlock()
	id, ok := events.ids[name]
	if !ok {
		if events.ids == nil {
			events.ids = make(map[string]int32)
		}
		events.names = append(events.names, name)
		id = int32(len(events.names))
		events.ids[name] = id
	}
	return Event{id: id, name: name}
}

// lookupEvent returns a registered name's id, or 0 when no event of that
// name was ever declared.
func lookupEvent(name string) int32 {
	events.mu.Lock()
	defer events.mu.Unlock()
	return events.ids[name]
}

// eventName returns the name of a registered id.
func eventName(id int32) string {
	events.mu.Lock()
	defer events.mu.Unlock()
	return events.names[id-1]
}
