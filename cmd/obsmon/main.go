// Command obsmon evaluates declarative SLO rules against the telemetry
// stream and reports alert incidents with exact window provenance. It can
// replay a recorded timeline artifact (a single timeline or a netload
// timeline grid) or attach the monitor to a live canonical scenario, and
// the two paths produce byte-identical reports for the same windows.
//
// Usage:
//
//	obsmon -rules rules.yaml -timeline tl.json   # replay a recorded timeline
//	obsmon -rules canonical -timeline grid.json  # built-in rules, every grid point
//	obsmon -rules slo.json -scenario cm5-finite  # live run with the monitor attached
//	obsmon -format json -o report.json           # text (default), json, or csv
//	obsmon -fail-on any                          # exit 3 on any incident (default: open)
//
// Exit codes: 0 compliant, 1 runtime error, 2 flag error, 3 SLO violation
// per -fail-on.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"msglayer/internal/cli"
	"msglayer/internal/experiments"
	"msglayer/internal/obs"
	"msglayer/internal/obs/diff"
	"msglayer/internal/obs/monitor"
	"msglayer/internal/obs/monitor/blame"
	"msglayer/internal/obs/timeline"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; factored out of main for testing.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("obsmon", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rulesPath := fs.String("rules", "canonical",
		"SLO rules file (JSON or YAML), or \"canonical\" for the built-in rule set")
	timelinePath := fs.String("timeline", "",
		"recorded timeline artifact to replay (single timeline or netload grid JSON)")
	scenario := fs.String("scenario", "",
		"live canonical scenario to monitor: "+strings.Join(experiments.CanonicalScenarios(), ", "))
	words := fs.Int("words", 64, "transfer size in words for -scenario")
	interval := fs.Uint64("interval", 8, "sampling window width in cycles for -scenario")
	format := fs.String("format", "text", "report format: text, json, or csv")
	out := fs.String("o", "-", "report destination file (\"-\" = stdout)")
	failOn := fs.String("fail-on", "open",
		"exit 3 when: open (an alert is still firing), any (any incident fired), none (never)")
	noBlame := fs.Bool("no-blame", false, "skip the Role×Feature×Category blame snippet on opened alerts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(stderr, "obsmon: -format must be text, json, or csv, got %q\n", *format)
		return 2
	}
	switch *failOn {
	case "open", "any", "none":
	default:
		fmt.Fprintf(stderr, "obsmon: -fail-on must be open, any, or none, got %q\n", *failOn)
		return 2
	}
	if (*timelinePath == "") == (*scenario == "") {
		fmt.Fprintln(stderr, "obsmon: exactly one of -timeline or -scenario is required")
		return 2
	}

	rules, err := monitor.LoadRules(*rulesPath)
	if err != nil {
		fmt.Fprintln(stderr, "obsmon:", err)
		return 1
	}

	var reports []*monitor.Report
	if *timelinePath != "" {
		reports, err = replayArtifact(*timelinePath, rules, *noBlame)
	} else {
		reports, err = runLive(*scenario, *words, *interval, rules, *noBlame)
	}
	if err != nil {
		fmt.Fprintln(stderr, "obsmon:", err)
		return 1
	}

	if err := writeReports(*out, stdout, *format, reports); err != nil {
		fmt.Fprintln(stderr, "obsmon:", err)
		return 1
	}

	violated := false
	for _, rep := range reports {
		switch *failOn {
		case "open":
			violated = violated || rep.Open > 0
		case "any":
			violated = violated || len(rep.Incidents) > 0
		}
	}
	if violated {
		fmt.Fprintf(stderr, "obsmon: SLO violated (-fail-on %s)\n", *failOn)
		return 3
	}
	return 0
}

// newMonitor builds a monitor over the rule set with blame wired unless
// suppressed.
func newMonitor(rules *monitor.RuleSet, noBlame bool) (*monitor.Monitor, error) {
	m, err := monitor.New(rules)
	if err != nil {
		return nil, err
	}
	if !noBlame {
		m.SetBlamer(blame.Compute)
	}
	return m, nil
}

// replayArtifact evaluates the rules against a recorded timeline artifact:
// one report for a single timeline, one per point (in sorted key order)
// for a netload grid.
func replayArtifact(path string, rules *monitor.RuleSet, noBlame bool) ([]*monitor.Report, error) {
	art, err := diff.LoadArtifact(path)
	if err != nil {
		return nil, err
	}
	replayOne := func(label string, tl *timeline.Timeline) (*monitor.Report, error) {
		m, err := newMonitor(rules, noBlame)
		if err != nil {
			return nil, err
		}
		if err := m.Replay(tl); err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		return m.Snapshot(label), nil
	}
	switch art.Kind {
	case "timeline":
		rep, err := replayOne(path, art.Timeline)
		if err != nil {
			return nil, err
		}
		return []*monitor.Report{rep}, nil
	case "timeline-grid":
		keys := make([]string, 0, len(art.Grid))
		for k := range art.Grid {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		reports := make([]*monitor.Report, 0, len(keys))
		for _, k := range keys {
			rep, err := replayOne(k, art.Grid[k])
			if err != nil {
				return nil, err
			}
			reports = append(reports, rep)
		}
		return reports, nil
	default:
		return nil, fmt.Errorf("%s: artifact kind %q carries no timeline (want a timeline or netload timeline grid)", path, art.Kind)
	}
}

// runLive attaches the monitor to a live canonical scenario and evaluates
// windows as they close.
func runLive(scenario string, words int, interval uint64, rules *monitor.RuleSet, noBlame bool) ([]*monitor.Report, error) {
	if interval == 0 {
		return nil, fmt.Errorf("-interval must be positive")
	}
	m, err := newMonitor(rules, noBlame)
	if err != nil {
		return nil, err
	}
	h := obs.NewHub()
	s := timeline.New(h.Metrics, timeline.Config{Interval: interval})
	m.Attach(s)
	h.SetTickListener(s.Advance)
	experiments.SetObserver(h)
	defer experiments.SetObserver(nil)
	if _, err := experiments.RunCanonical(scenario, words); err != nil {
		return nil, err
	}
	s.Flush(h.Round())
	return []*monitor.Report{m.Snapshot(scenario)}, nil
}

// writeReports renders every report into the destination. Text reports are
// concatenated with a blank line; JSON emits an array document; CSV shares
// one header with a leading label column.
func writeReports(dest string, stdout io.Writer, format string, reports []*monitor.Report) error {
	return cli.WriteTo(dest, stdout, func(w io.Writer) error {
		switch format {
		case "json":
			return monitor.WriteJSONReports(w, reports)
		case "csv":
			cw := csv.NewWriter(w)
			if err := cw.Write(monitor.CSVHeader("label")); err != nil {
				return err
			}
			for _, rep := range reports {
				if err := monitor.AppendCSV(cw, []string{rep.Label}, rep); err != nil {
					return err
				}
			}
			cw.Flush()
			return cw.Error()
		default:
			for i, rep := range reports {
				if i > 0 {
					if _, err := io.WriteString(w, "\n"); err != nil {
						return err
					}
				}
				if err := monitor.WriteText(w, rep); err != nil {
					return err
				}
			}
			return nil
		}
	})
}
