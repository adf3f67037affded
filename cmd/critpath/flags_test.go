package main

import (
	"strings"
	"testing"
)

// TestFlagValidationTable: explicitly-set non-positive pool sizes error out
// with a clear message instead of silently falling back to auto-sizing.
func TestFlagValidationTable(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"zero parallel", []string{"-parallel", "0"}},
		{"negative parallel", []string{"-parallel", "-2"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, errOut strings.Builder
			if code := run(c.args, &out, &errOut); code == 0 {
				t.Fatal("accepted non-positive pool size")
			}
			if !strings.Contains(errOut.String(), "must be a positive count") {
				t.Fatalf("unclear message: %q", errOut.String())
			}
		})
	}
}
