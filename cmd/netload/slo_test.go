package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sloRules writes a rules file into a temp dir.
func sloRules(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tightSLO fires on every point: no link moves a million flits per kcycle.
const tightSLO = `rules:
  - name: impossible-link-floor
    kind: rate
    severity: page
    match:
      prefix: flitnet_link_flits_total
    min: 1000000
`

// looseSLO never fires (a link moves at most 1000 flits per kcycle); it
// comes in both rule-file formats.
const (
	looseSLO = `{"rules": [{"name": "roomy-link-ceiling", "kind": "rate",
  "match": {"prefix": "flitnet_link_flits_total"}, "max": 1000000}]}`
	looseSLOYAML = `rules:
  - name: roomy-ceiling
    kind: rate
    max: 1000000
    match:
      prefix: flitnet_link_flits_total
`
)

// smallGrid is the quick sweep most SLO tests run.
var smallGrid = []string{"-loads", "0.05,0.2", "-cycles", "300", "-k", "2", "-levels", "2"}

// runSLO runs a sweep over grid with -slo and returns the exit code and the
// alert report contents.
func runSLO(t *testing.T, grid []string, rulesPath string, extra ...string) (int, string) {
	t.Helper()
	sloPath := filepath.Join(t.TempDir(), "slo.txt")
	var out, errOut strings.Builder
	args := append(append([]string(nil), grid...), "-slo", rulesPath, "-slo-out", sloPath)
	code := run(append(args, extra...), &out, &errOut)
	b, err := os.ReadFile(sloPath)
	if err != nil {
		t.Fatalf("slo report not written (exit %d): %v\nstderr:\n%s", code, err, errOut.String())
	}
	return code, string(b)
}

// TestObsNetloadSLOViolation: a firing rule exits 3 and the report (still
// written) names every point.
func TestObsNetloadSLOViolation(t *testing.T) {
	code, rep := runSLO(t, smallGrid, sloRules(t, "tight.yaml", tightSLO))
	if code != 3 {
		t.Fatalf("exit = %d, want 3\n%s", code, rep)
	}
	if !strings.Contains(rep, "impossible-link-floor") || !strings.Contains(rep, "FIRING") {
		t.Fatalf("report missing firing rule:\n%s", rep)
	}
	for _, label := range []string{"deterministic/load=50", "adaptive/load=200", "cr/load=200"} {
		if !strings.Contains(rep, "# slo report: "+label) {
			t.Errorf("report missing point %s:\n%s", label, rep)
		}
	}
}

// TestObsNetloadSLOCompliant: a loose rule exits 0, in either rule-file
// format.
func TestObsNetloadSLOCompliant(t *testing.T) {
	for _, f := range []struct{ name, content string }{
		{"loose.json", looseSLO},
		{"loose.yaml", looseSLOYAML},
	} {
		code, rep := runSLO(t, smallGrid, sloRules(t, f.name, f.content))
		if code != 0 {
			t.Fatalf("%s: exit = %d, want 0\n%s", f.name, code, rep)
		}
		if !strings.Contains(rep, "0 incident(s), ok") {
			t.Fatalf("%s: report missing compliant rule:\n%s", f.name, rep)
		}
	}
}

// TestObsNetloadSLODeterminism: a firing rule set exits 3 and its alert
// report is byte-identical at -parallel 1 and 4. The canonical rules on the
// default grid fire today by design — the delivery floor sees no protocol
// delivery counters in a flit-level timeline, and an absent series is rate
// 0 — so that row pins the current exit until the rules stop firing on a
// healthy run.
func TestObsNetloadSLODeterminism(t *testing.T) {
	for _, c := range []struct {
		name, rules string
		grid        []string
	}{
		{"tight", sloRules(t, "tight.yaml", tightSLO), smallGrid},
		{"canonical", "canonical", []string{"-cycles", "200"}},
	} {
		serialCode, serial := runSLO(t, c.grid, c.rules, "-parallel", "1")
		parCode, par := runSLO(t, c.grid, c.rules, "-parallel", "4")
		if serialCode != 3 || parCode != 3 {
			t.Errorf("%s: exit = %d at -parallel 1, %d at -parallel 4; want 3", c.name, serialCode, parCode)
		}
		if par != serial {
			t.Errorf("%s: alert report differs between -parallel 1 and 4:\n--- serial ---\n%s\n--- parallel ---\n%s",
				c.name, serial, par)
		}
	}
}

// TestObsNetloadSLOBadRules: a bad rules file fails before the sweep.
func TestObsNetloadSLOBadRules(t *testing.T) {
	bad := sloRules(t, "bad.yaml", "rules:\n  - name: x\n    kind: nosuch\n")
	var out, errOut strings.Builder
	if code := run([]string{"-slo", bad}, &out, &errOut); code != 1 {
		t.Fatalf("exit = %d, want 1; stderr:\n%s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "unknown kind") {
		t.Fatalf("stderr missing rules error:\n%s", errOut.String())
	}
}
