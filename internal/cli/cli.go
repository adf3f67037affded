// Package cli holds the artifact plumbing the command-line tools share.
package cli

import (
	"fmt"
	"io"
	"os"
)

// WriteTo renders into the file dest, or into stdout when dest is "-". An
// unwritable path is an error naming it, and a failed render or close
// removes the file instead of leaving a truncated artifact that looks valid.
func WriteTo(dest string, stdout io.Writer, render func(io.Writer) error) error {
	if dest == "-" {
		return render(stdout)
	}
	f, err := os.Create(dest)
	if err != nil {
		return fmt.Errorf("writing %s: %w", dest, err)
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(dest)
		return fmt.Errorf("writing %s: %w", dest, err)
	}
	return nil
}
