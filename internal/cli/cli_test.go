package cli

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteTo: "-" renders to stdout and creates no file, and a render that
// fails midway into a file returns the wrapped error and removes the
// truncated artifact.
func TestWriteTo(t *testing.T) {
	renderErr := errors.New("render broke midway")
	for _, c := range []struct {
		name    string
		dest    string
		err     error
		wantOut string
	}{
		{"stdout", "-", nil, `{"traceEvents":[`},
		{"partial-file-removed", "trace.json", renderErr, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			dest := c.dest
			if dest != "-" {
				dest = filepath.Join(dir, dest)
			}
			var stdout bytes.Buffer
			err := WriteTo(dest, &stdout, func(w io.Writer) error {
				if _, werr := w.Write([]byte(`{"traceEvents":[`)); werr != nil {
					return werr
				}
				return c.err
			})
			if !errors.Is(err, c.err) {
				t.Fatalf("WriteTo error = %v, want %v", err, c.err)
			}
			if stdout.String() != c.wantOut {
				t.Errorf("stdout = %q, want %q", stdout.String(), c.wantOut)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("file left behind in %s: %s", dir, entries[0].Name())
			}
		})
	}
}
