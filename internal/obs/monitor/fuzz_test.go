package monitor

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParseRules drives the rules parser — strict JSON and the hand-rolled
// YAML subset — with arbitrary documents. It must never panic, and parsing
// the same bytes twice must give deep-equal rule sets (or the same error).
// Under plain `go test` only the seed corpus runs; explore with
// `go test -fuzz FuzzParseRules ./internal/obs/monitor`.
func FuzzParseRules(f *testing.F) {
	canonical, err := json.Marshal(CanonicalRules())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canonical)
	f.Add([]byte(rulesJSON))
	f.Add([]byte(rulesYAML))
	for _, c := range rejectedRules {
		f.Add([]byte(c.src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, errA := ParseRules(data)
		b, errB := ParseRules(data)
		if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
			t.Fatalf("two parses disagree: %v vs %v", errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("two parses of the same bytes differ:\n%+v\n%+v", a, b)
		}
	})
}
