package parsweep

import (
	"flag"
	"fmt"
)

// ValidatePositiveFlags rejects explicitly-set non-positive values for the
// named integer flags. The CLIs share the convention that -parallel
// defaults to 0 meaning "auto-size"; a user who *types* 0 or a negative
// value, though, is asking for a nonsensical pool and used to fall through
// to the silent auto default. Only flags the user actually set are checked,
// so the auto default keeps working.
func ValidatePositiveFlags(fs *flag.FlagSet, names ...string) error {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err != nil || !want[f.Name] {
			return
		}
		g, ok := f.Value.(flag.Getter)
		if !ok {
			return
		}
		v, ok := g.Get().(int)
		if !ok {
			return
		}
		if v < 1 {
			err = fmt.Errorf("-%s must be a positive count, got %d", f.Name, v)
		}
	})
	return err
}
