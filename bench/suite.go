package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// envInfo records where a result set was measured.
type envInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentEnv() envInfo {
	commit := "unknown" // a checkout need not be a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return envInfo{Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// summary is one end-to-end metric over a workload's untraced runs.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// suiteWorkload is one workload's part of a result set.
type suiteWorkload struct {
	Sizes     map[string]int     `json:"sizes"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	EndToEnd  map[string]summary `json:"end_to_end"`
	PerLayer  map[string]value   `json:"per_layer,omitempty"`
	Spans     []layerRow         `json:"span_table,omitempty"`
	// TraceOverheadFrac is how much slower the traced run's timed ops
	// were than the untraced median: untraced krec_per_s / traced - 1.
	TraceOverheadFrac float64 `json:"trace_overhead_frac"`
}

// suiteResult is what -json writes when all workloads run: the file
// -compare reads.
type suiteResult struct {
	Env       envInfo                   `json:"env"`
	Seed      uint64                    `json:"seed"`
	Runs      int                       `json:"runs"`
	Seconds   float64                   `json:"seconds"`
	Scale     float64                   `json:"scale"`
	Workloads map[string]*suiteWorkload `json:"workloads"`
}

// runSuite runs every workload in child processes — runs untraced ones
// and a traced one each — so peak memory and GC state are per run.
func runSuite(o options) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	tmp, cleanup, err := scratchDir(o.workdir)
	if err != nil {
		return err
	}
	defer cleanup()
	suite := &suiteResult{Env: currentEnv(), Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Scale: o.scale,
		Workloads: map[string]*suiteWorkload{}}
	ok := true
	for _, w := range workloads {
		sw := &suiteWorkload{EndToEnd: map[string]summary{}}
		suite.Workloads[w.Name] = sw
		values := map[string][]float64{}
		for i := 0; i <= o.runs; i++ {
			traced := i == o.runs
			trace := "0"
			if traced {
				trace = "1"
				if o.trace != "0" && o.trace != "1" { // spans of every workload, one file each
					trace = strings.TrimSuffix(o.trace, ".json") + "-" + w.Name + ".json"
				}
			}
			res, err := runChild(self, tmp, w.Name, trace, o)
			if err != nil {
				return err
			}
			sw.Sizes = res.Sizes
			sw.Attempted += res.Attempted
			sw.Failed += res.Failed
			sw.Failures = append(sw.Failures, res.Failures...)
			if traced {
				sw.PerLayer, sw.Spans = res.PerLayer, res.Spans
				if t := res.EndToEnd["krec_per_s"].Value; t > 0 {
					sw.TraceOverheadFrac = median(values["krec_per_s"])/t - 1
				}
				continue
			}
			for name, v := range res.EndToEnd {
				values[name] = append(values[name], v.Value)
			}
		}
		for _, m := range endToEnd {
			q1, q2, q3 := quartiles(values[m.Name])
			sw.EndToEnd[m.Name] = summary{Unit: m.Unit, Median: q2, Q1: q1, Q3: q3, Values: values[m.Name]}
		}
		printSuiteWorkload(w.Name, sw, o.runs)
		ok = ok && sw.Failed == 0
	}
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, suite); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("correctness checks failed")
	}
	return nil
}

// runChild runs one workload once in a child process and reads back the
// result file it wrote.
func runChild(self, tmp, workload, trace string, o options) (*runResult, error) {
	out := filepath.Join(tmp, "result.json")
	cmd := exec.Command(self,
		"-workload", workload, "-trace", trace, "-json", out, "-workdir", tmp,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds), "-scale", fmt.Sprint(o.scale))
	cmd.Stderr = os.Stderr
	// A child that fails its checks exits non-zero but still writes its
	// result; only a missing result is fatal here.
	runErr := cmd.Run()
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, fmt.Errorf("%s: child left no result (%v)", workload, runErr)
	}
	defer os.Remove(out)
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	return &res, nil
}

func printSuiteWorkload(name string, sw *suiteWorkload, runs int) {
	fmt.Printf("workload %s  (%d untraced runs + 1 traced)  sizes: %s\n", name, runs, formatSizes(sw.Sizes))
	fmt.Printf("  %-22s %14s %14s %14s  %s\n", "end-to-end metric", "median", "q1", "q3", "unit")
	for _, m := range endToEnd {
		s := sw.EndToEnd[m.Name]
		fmt.Printf("  %-22s %14.4f %14.4f %14.4f  %s\n", m.Name, s.Median, s.Q1, s.Q3, s.Unit)
	}
	fmt.Printf("  %-22s %14.4f\n", "trace_overhead_frac", sw.TraceOverheadFrac)
	printFailures(sw.Failed, sw.Attempted, sw.Failures)
	printPerLayer(sw.PerLayer)
}
