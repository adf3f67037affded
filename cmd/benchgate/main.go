// Command benchgate records and gates performance snapshots: the one
// committed BENCH_BASELINE.json every change is judged against.
//
// Record mode runs the canonical scenarios (single-packet, finite and
// indefinite CM-5/CR transfers, one flit-level netload sweep point) N times
// and writes a schema-versioned snapshot of the deterministic simulation
// metrics (instruction costs per role × feature × category, rounds, packet
// counts, flit stats) and the host metrics (wall clock, allocations).
//
// Compare mode gates a new snapshot against an old one: sim metrics must
// match exactly (any instruction-count drift fails), allocation benchmarks
// must not grow their allocs/op, and host metrics may regress up to a
// threshold unless the change is statistically insignificant (Welch's
// t-test). Host metrics only gate between snapshots recorded at the same
// -parallel count. Exit status 0 means the gate passed, 1 means it failed
// or errored, 2 means bad usage.
//
// Usage:
//
//	benchgate -record BENCH_BASELINE.json -label BASELINE -n 3 -parallel 1  # re-record the baseline
//	benchgate -record out.json -n 10 -words 128        # heavier recording
//	benchgate -record out.json -parallel 1             # serial reps (comparable host numbers)
//	benchgate -compare BENCH_BASELINE.json fresh.json  # full gate
//	benchgate -compare -sim-only old.json new.json     # CI: exact sim gate only
//	benchgate -compare -threshold 0.2 -alpha 0.01 old.json new.json
//
// Flags must precede the snapshot paths (standard library flag parsing).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"msglayer/internal/obs/diff"
	"msglayer/internal/parsweep"
	"msglayer/internal/perfreg"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.String("record", "", "record a snapshot to this path")
	label := fs.String("label", "", "label stored in the recorded snapshot")
	n := fs.Int("n", 5, "timed repetitions per scenario when recording")
	words := fs.Int("words", 64, "protocol transfer size in words when recording")
	netloadCycles := fs.Int("netload-cycles", 1000, "flit-level measurement cycles when recording")
	parallel := fs.Int("parallel", 0,
		"worker goroutines for the timed repetitions (0 = GOMAXPROCS, 1 = serial); host metrics only gate between snapshots recorded at the same count")
	noBenches := fs.Bool("no-benches", false, "skip the allocation benchmarks when recording")
	compare := fs.Bool("compare", false, "compare two snapshots: benchgate -compare old.json new.json")
	threshold := fs.Float64("threshold", 0.10, "fractional host-metric regression that fails the gate")
	alpha := fs.Float64("alpha", 0.05, "significance level a host regression must reach to fail")
	simOnly := fs.Bool("sim-only", false, "gate only the deterministic metrics — sim counts and bench allocs/op (CI mode)")
	jsonOut := fs.Bool("json", false, "with -compare, emit the machine-readable result (verdict, failing keys, diff attribution)")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "benchgate: record and gate performance snapshots")
		fmt.Fprintln(stderr, "  benchgate -record out.json [-label L] [-n 5] [-words 64] [-netload-cycles 1000] [-parallel 0] [-no-benches]")
		fmt.Fprintln(stderr, "  benchgate -compare [-threshold 0.10] [-alpha 0.05] [-sim-only] [-json] old.json new.json")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := parsweep.ValidatePositiveFlags(fs, "parallel"); err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}

	switch {
	case *record != "" && *compare:
		fmt.Fprintln(stderr, "benchgate: -record and -compare are mutually exclusive")
		return 2
	case *jsonOut && !*compare:
		fmt.Fprintln(stderr, "benchgate: -json only applies to -compare")
		return 2
	case *record != "":
		return doRecord(perfreg.RecordConfig{
			Label:         *label,
			Reps:          *n,
			Words:         *words,
			NetloadCycles: *netloadCycles,
			Parallel:      *parallel,
			SkipBenches:   *noBenches,
			Timestamp:     time.Now().UTC().Format(time.RFC3339),
		}, *record, stdout, stderr)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchgate: -compare wants exactly two snapshot paths, got", fs.NArg())
			return 2
		}
		return doCompare(fs.Arg(0), fs.Arg(1), perfreg.CompareOptions{
			HostThreshold: *threshold,
			Alpha:         *alpha,
			SimOnly:       *simOnly,
		}, *jsonOut, stdout, stderr)
	}
	fs.Usage()
	return 2
}

// doRecord runs the harness and writes the snapshot.
func doRecord(cfg perfreg.RecordConfig, path string, stdout, stderr io.Writer) int {
	start := time.Now()
	snap, err := perfreg.Record(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	if err := snap.WriteFile(path); err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: recorded %d scenarios x %d reps (parallel %d) and %d benches to %s in %v\n",
		len(snap.Scenarios), snap.Reps, snap.Parallel, len(snap.Benches), path, time.Since(start).Round(time.Millisecond))
	return 0
}

// doCompare gates new against old and prints the verdict table (or, with
// jsonOut, the machine-readable result). When a deterministic gate fails,
// the diff engine attributes the regression — which cells moved, by how
// much, and their blame shares — instead of leaving a bare key list.
func doCompare(oldPath, newPath string, opt perfreg.CompareOptions, jsonOut bool, stdout, stderr io.Writer) int {
	oldSnap, err := perfreg.ReadFile(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	newSnap, err := perfreg.ReadFile(newPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	rep, err := perfreg.Compare(oldSnap, newSnap, opt)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return 1
	}
	attribution := simAttribution(rep, oldSnap, newSnap)

	if jsonOut {
		doc := struct {
			Old         snapshotRef     `json:"old"`
			New         snapshotRef     `json:"new"`
			Pass        bool            `json:"pass"`
			SimChecked  int             `json:"sim_checked"`
			SimEqual    int             `json:"sim_equal"`
			Failing     []perfreg.Delta `json:"failing,omitempty"`
			Attribution *diff.Report    `json:"attribution,omitempty"`
		}{
			Old:        snapshotRef{Path: oldPath, Label: oldSnap.Label},
			New:        snapshotRef{Path: newPath, Label: newSnap.Label},
			Pass:       rep.Pass,
			SimChecked: rep.SimChecked,
			SimEqual:   rep.SimEqual,
			Failing:    rep.Failing(),
		}
		doc.Attribution = attribution
		out, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(out))
		if !rep.Pass {
			return 1
		}
		return 0
	}

	fmt.Fprintf(stdout, "benchgate: %q (%s) vs %q (%s)\n",
		oldSnap.Label, oldPath, newSnap.Label, newPath)
	fmt.Fprint(stdout, rep.String())
	if attribution != nil {
		fmt.Fprintf(stdout, "\n-- differential attribution (obsdiff) --\n")
		if err := diff.WriteText(stdout, attribution); err != nil {
			fmt.Fprintln(stderr, "benchgate:", err)
			return 1
		}
	}
	if !rep.Pass {
		return 1
	}
	return 0
}

// snapshotRef identifies one compared snapshot in the JSON result.
type snapshotRef struct {
	Path  string `json:"path"`
	Label string `json:"label"`
}

// simAttribution runs the diff engine over the snapshots when a
// deterministic gate failed — the failures the engine can explain exactly.
// Host-metric failures are noise-gated elsewhere and get no attribution.
func simAttribution(rep *perfreg.Report, oldSnap, newSnap *perfreg.Snapshot) *diff.Report {
	deterministic := false
	for _, d := range rep.Failing() {
		if d.Kind == "sim" || d.Kind == "bench" {
			deterministic = true
			break
		}
	}
	if !deterministic {
		return nil
	}
	return diff.ComparePerfreg(oldSnap, newSnap)
}
