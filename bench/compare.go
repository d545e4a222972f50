package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) row.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// worsening is by what share of the old median the new median is worse:
// positive when a lower-is-better metric rose or a higher-is-better fell.
func worsening(m metricDef, oldMedian, newMedian float64) float64 {
	if oldMedian == 0 {
		return 0
	}
	change := (newMedian - oldMedian) / oldMedian
	if m.Better == higher {
		return -change
	}
	return change
}

// judge applies a metric's bound to two summaries.
func judge(m metricDef, oldS, newS summary) string {
	if spread(oldS.Values) > m.Bound || spread(newS.Values) > m.Bound {
		return verdictUnresolved
	}
	if worsening(m, oldS.Median, newS.Median) > m.Bound {
		return verdictRegression
	}
	return verdictOK
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a result set written by `bench -json` over all workloads", path)
	}
	return &s, nil
}

// compareFiles prints one row per (metric, workload) with both medians
// and the new/old ratio, and fails on a regression or more failed ops.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldSuite, err := readSuite(oldPath)
	if err != nil {
		return err
	}
	newSuite, err := readSuite(newPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "old: %s (commit %s, seed %d, %d runs)\nnew: %s (commit %s, seed %d, %d runs)\n",
		oldPath, oldSuite.Env.Commit, oldSuite.Seed, oldSuite.Runs, newPath, newSuite.Env.Commit, newSuite.Seed, newSuite.Runs)
	fmt.Fprintf(w, "%-16s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "new/old", "bound", "verdict")
	regressions := 0
	for _, wl := range workloads {
		o, n := oldSuite.Workloads[wl.Name], newSuite.Workloads[wl.Name]
		if o == nil || n == nil {
			return fmt.Errorf("workload %s missing from one result set", wl.Name)
		}
		for _, m := range endToEnd {
			was, now := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
			verdict := judge(m, was, now)
			if verdict == verdictRegression {
				regressions++
			}
			ratio := 0.0
			if was.Median != 0 {
				ratio = now.Median / was.Median
			}
			fmt.Fprintf(w, "%-16s %-20s %14.4f %14.4f %8.3fx %6.0f%%  %s\n",
				wl.Name, m.Name, was.Median, now.Median, ratio, 100*m.Bound, verdict)
		}
		// failed_frac must not rise.
		of, nf := failedFrac(o.Failed, o.Attempted), failedFrac(n.Failed, n.Attempted)
		verdict := verdictOK
		if nf > of {
			verdict = verdictRegression
			regressions++
		}
		fmt.Fprintf(w, "%-16s %-20s %14.6f %14.6f %9s %7s  %s\n", wl.Name, "failed_frac", of, nf, "", "rise", verdict)
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	return nil
}
