package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeProfile(t *testing.T, body string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "cover.out")
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const sampleProfile = `mode: set
ncfn/internal/telemetry/counter.go:10.2,12.3 4 1
ncfn/internal/telemetry/counter.go:14.2,16.3 6 1
ncfn/internal/telemetry/hist.go:5.2,7.3 10 0
ncfn/internal/dataplane/vnf.go:20.2,25.3 8 1
ncfn/internal/dataplane/vnf.go:30.2,31.3 2 0
`

// telemetry: 10/20 = 50%, dataplane: 8/10 = 80%, total: 18/30 = 60%.

func TestParseProfileAggregatesByPackage(t *testing.T) {
	perPkg, perFile, err := parseProfile(writeProfile(t, sampleProfile))
	if err != nil {
		t.Fatal(err)
	}
	counter := perFile["ncfn/internal/telemetry/counter.go"]
	if counter.total != 10 || counter.covered != 10 {
		t.Fatalf("counter.go = %+v, want 10/10", counter)
	}
	hist := perFile["ncfn/internal/telemetry/hist.go"]
	if hist.total != 10 || hist.covered != 0 {
		t.Fatalf("hist.go = %+v, want 0/10", hist)
	}
	tele := perPkg["ncfn/internal/telemetry"]
	if tele.total != 20 || tele.covered != 10 {
		t.Fatalf("telemetry = %+v, want 10/20", tele)
	}
	dp := perPkg["ncfn/internal/dataplane"]
	if dp.total != 10 || dp.covered != 8 {
		t.Fatalf("dataplane = %+v, want 8/10", dp)
	}
}

func TestRunPassesWhenFloorsHold(t *testing.T) {
	p := writeProfile(t, sampleProfile)
	var sb strings.Builder
	err := run([]string{"-profile", p, "-total", "60", "-floor", "ncfn/internal/dataplane=80"}, &sb)
	if err != nil {
		t.Fatalf("floors should hold: %v\n%s", err, sb.String())
	}
	if !strings.Contains(sb.String(), "total") {
		t.Fatalf("report missing total line:\n%s", sb.String())
	}
}

func TestRunFailsBelowPackageFloor(t *testing.T) {
	p := writeProfile(t, sampleProfile)
	var sb strings.Builder
	err := run([]string{"-profile", p, "-floor", "ncfn/internal/telemetry=90"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "ncfn/internal/telemetry") {
		t.Fatalf("want telemetry floor violation, got %v", err)
	}
}

func TestRunFailsBelowTotalFloor(t *testing.T) {
	p := writeProfile(t, sampleProfile)
	var sb strings.Builder
	err := run([]string{"-profile", p, "-total", "70"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "total coverage") {
		t.Fatalf("want total floor violation, got %v", err)
	}
}

func TestRunEnforcesFileFloors(t *testing.T) {
	p := writeProfile(t, sampleProfile)
	var sb strings.Builder
	// counter.go is 100% covered: floor holds.
	if err := run([]string{"-profile", p, "-filefloor", "ncfn/internal/telemetry/counter.go=90"}, &sb); err != nil {
		t.Fatalf("file floor should hold: %v", err)
	}
	// hist.go is 0% covered: floor violated.
	err := run([]string{"-profile", p, "-filefloor", "ncfn/internal/telemetry/hist.go=50"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "hist.go") {
		t.Fatalf("want hist.go file-floor violation, got %v", err)
	}
	// Unknown files are violations, not silent passes.
	err = run([]string{"-profile", p, "-filefloor", "ncfn/internal/telemetry/gone.go=50"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "not present") {
		t.Fatalf("want missing-file violation, got %v", err)
	}
}

func TestRunFailsOnMissingFlooredPackage(t *testing.T) {
	p := writeProfile(t, sampleProfile)
	var sb strings.Builder
	err := run([]string{"-profile", p, "-floor", "ncfn/internal/gone=50"}, &sb)
	if err == nil || !strings.Contains(err.Error(), "not present") {
		t.Fatalf("want missing-package violation, got %v", err)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, body := range []string{
		"mode: set\n",                   // no blocks
		"mode: set\nnot a line\n",       // no colon fields
		"mode: set\nf.go:1.1,2.2 x 1\n", // bad statement count
	} {
		if _, _, err := parseProfile(writeProfile(t, body)); err == nil {
			t.Fatalf("profile %q accepted", body)
		}
	}
}

func TestFloorListFlagParsing(t *testing.T) {
	f := floorList{}
	if err := f.Set("a/b=90"); err != nil {
		t.Fatal(err)
	}
	if err := f.Set("nofloor"); err == nil {
		t.Fatal("missing = accepted")
	}
	if err := f.Set("a/b=high"); err == nil {
		t.Fatal("non-numeric floor accepted")
	}
	if f.String() != "a/b=90" {
		t.Fatalf("String() = %q", f.String())
	}
}
