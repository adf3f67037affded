package diff

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadArtifactBytes drives the artifact kind sniffer with arbitrary
// bytes. It must never panic, and whatever it accepts must come back as
// one of the documented kinds. The seeds are the serve package's golden
// documents and the committed perfreg baseline. Under plain `go test` only
// the seed corpus runs; explore with
// `go test -fuzz FuzzLoadArtifactBytes -fuzzminimizetime 1s ./internal/obs/diff`
// (the multi-kilobyte seeds make the default minimization crawl).
func FuzzLoadArtifactBytes(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "serve", "testdata", "*.golden"))
	if err != nil {
		f.Fatal(err)
	}
	seeds = append(seeds, filepath.Join("..", "..", "..", "BENCH_BASELINE.json"))
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	kinds := map[string]bool{"perfreg": true, "metrics": true, "timeline": true, "timeline-grid": true, "critpath": true}
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := LoadArtifactBytes("fuzz", data)
		if err != nil {
			return
		}
		if a == nil || !kinds[a.Kind] {
			t.Fatalf("accepted artifact with kind %+v", a)
		}
	})
}
