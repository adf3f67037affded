package perfreg

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzPerfregParse drives the snapshot decoder with arbitrary bytes. It
// must never panic, and a snapshot it accepts must re-marshal to JSON that
// parses back deep-equal. The seeds are the committed baseline,
// truncations of it, and an empty benches list. Under plain `go test` only the seed corpus runs;
// explore with
// `go test -run '^$' -fuzz FuzzPerfregParse -fuzzminimizetime 1s ./internal/perfreg`
// (the multi-kilobyte seed makes the default minimization crawl).
func FuzzPerfregParse(f *testing.F) {
	base, err := os.ReadFile(filepath.Join("..", "..", "BENCH_BASELINE.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base)
	for _, frac := range []int{2, 3, 5, 8, 16} {
		f.Add(base[:len(base)/frac])
	}
	f.Add(base[:len(base)-2]) // just short of the closing brace
	// An explicitly empty omitempty list, which re-marshals as absent.
	f.Add([]byte(fmt.Sprintf(`{"schema":%d,"scenarios":[],"benches":[]}`, SchemaVersion)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted snapshot does not marshal: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("re-marshalled snapshot rejected: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("snapshot changed across a marshal round trip:\n first %+v\n again %+v", s, again)
		}
	})
}
