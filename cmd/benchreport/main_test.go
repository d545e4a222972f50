package main

import (
	"errors"
	"strings"
	"testing"
)

// TestRunValidatesExp: a misspelt (or since-removed) experiment is an
// error naming the valid ones — not a silent, green no-op — and a real
// one still runs.
func TestRunValidatesExp(t *testing.T) {
	for _, exp := range []string{"bogus", "scan", ""} {
		err := run(exp, 1, evalFlags{})
		if !errors.Is(err, errUnknownExp) || !strings.Contains(err.Error(), expNames()) {
			t.Errorf("run(%q) = %v, want errUnknownExp naming %s", exp, err, expNames())
		}
	}
	if got := expNames(); got != "all|e1|e2|e3|e4|e5|e6|eval" {
		t.Errorf("expNames() = %q", got)
	}
	if err := run("e5", 1, evalFlags{}); err != nil {
		t.Errorf("run(e5) = %v", err)
	}
}
