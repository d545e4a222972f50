package main

import (
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/eval"
)

// TestRunValidatesExp: a misspelt (or since-removed) experiment is an
// error naming the valid ones — not a silent, green no-op — and a real
// one still runs.
func TestRunValidatesExp(t *testing.T) {
	for _, exp := range []string{"bogus", "scan", ""} {
		err := run(io.Discard, exp, 1, evalFlags{})
		if !errors.Is(err, errUnknownExp) || !strings.Contains(err.Error(), expNames()) {
			t.Errorf("run(%q) = %v, want errUnknownExp naming %s", exp, err, expNames())
		}
	}
	if got := expNames(); got != "all|e1|e2|e3|e4|e5|e6|eval" {
		t.Errorf("expNames() = %q", got)
	}
	if err := run(io.Discard, "e5", 1, evalFlags{}); err != nil {
		t.Errorf("run(e5) = %v", err)
	}
}

// TestPrintsTheGatedRuns: at the default -seed, the E5 and E6 tables
// benchreport prints are the runs TestPaperBands gates, row for row.
func TestPrintsTheGatedRuns(t *testing.T) {
	sweep, err := eval.PaperUDPFloodSweep(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tuning, err := eval.PaperTuningAblation(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for exp, want := range map[string]string{"e5": sweepTable(sweep), "e6": tuningTable(tuning)} {
		var out strings.Builder
		if err := run(&out, exp, 1, evalFlags{}); err != nil {
			t.Fatalf("run(%s) = %v", exp, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("%s prints a different run than the gated one:\n%s\nwant the table\n%s", exp, out.String(), want)
		}
	}
}
