// Command bench is the repo's benchmark harness: it replays generated
// multi-million-flow inputs through the batch, scan, write and live
// paths, prints every metric by name and unit, and checks the outputs.
// See README.md for the workloads, the metric glossary and how to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the command-line flags.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	runs     int
	trace    string // "0" off, "1" on, anything else: on and the spans file to write
	jsonOut  string
	workdir  string
	compare  bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process; empty runs all, each in a child process")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "length of one run's timed section")
	fs.Float64Var(&o.scale, "scale", 1, "multiply every frozen input size (1 in a measured run)")
	fs.IntVar(&o.runs, "runs", 1, "untraced runs per workload when running all; medians and quartiles are reported")
	fs.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: traced run with per-layer metrics; a path: traced, spans written there")
	fs.StringVar(&o.jsonOut, "json", "", "also write the full result as JSON to this file")
	fs.StringVar(&o.workdir, "workdir", "", "scratch directory (default: a fresh one under .bench_work, removed on exit)")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if o.seconds <= 0 || o.scale <= 0 || o.runs < 1 {
		return fmt.Errorf("-seconds, -scale and -runs must be positive")
	}
	if o.workload == "" {
		return runSuite(o)
	}
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	res, err := runInProcess(w, o)
	if err != nil {
		return err
	}
	printRun(res)
	if o.jsonOut != "" {
		if err := writeJSON(o.jsonOut, res); err != nil {
			return err
		}
	}
	// The driver reads the last line of standard output.
	line, err := json.Marshal(res.driverLine())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d ops or checks failed", w.Name, res.Failed, res.Attempted)
	}
	return nil
}

// runInProcess runs one workload once, in a scratch directory of its own.
func runInProcess(w workload, o options) (*runResult, error) {
	dir, cleanup, err := scratchDir(o.workdir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	e := &env{seed: o.seed, seconds: o.seconds, scale: o.scale, dir: dir}
	if o.trace != "0" {
		e.tr = newTracer()
	}
	res, err := runOne(w, e)
	if err != nil {
		return nil, err
	}
	if o.trace != "0" && o.trace != "1" {
		if err := e.tr.write(o.trace); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// scratchDir returns a fresh directory under base (default .bench_work in
// the current directory, which `go run -C bench` makes bench/) and the
// func removing it.
func scratchDir(base string) (string, func(), error) {
	if base == "" {
		base = ".bench_work"
	}
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", nil, err
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", nil, err
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", nil, err
	}
	return abs, func() { os.RemoveAll(abs) }, nil
}

// driverLine is the one JSON object the driver reads: end-to-end metrics
// from an untraced run, per-layer metrics from a traced one.
func (r *runResult) driverLine() map[string]any {
	metrics := r.EndToEnd
	if r.Traced {
		metrics = r.PerLayer
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// printRun prints every metric of one run by name and unit.
func printRun(r *runResult) {
	fmt.Printf("workload %s  seed %d  seconds %g  scale %g  traced %v\n", r.Workload, r.Seed, r.Seconds, r.Scale, r.Traced)
	fmt.Printf("  sizes: %s\n", formatSizes(r.Sizes))
	fmt.Printf("  ops timed: n=%d; highest percentile with >=%d samples beyond it: ", r.Samples, minBeyond)
	if r.TailPct == 0 {
		fmt.Printf("none (n too small)\n")
	} else {
		fmt.Printf("p%d = %.3f ms\n", r.TailPct, r.TailMS)
	}
	for _, m := range endToEnd {
		fmt.Printf("  %-22s %14.4f %s\n", m.Name, r.EndToEnd[m.Name].Value, m.Unit)
	}
	printFailures(r.Failed, r.Attempted, r.Failures)
	if !r.Traced {
		return
	}
	printPerLayer(r.PerLayer)
	fmt.Println("  spans by name: count, total ms, self ms (duration minus child spans)")
	for _, row := range r.Spans {
		fmt.Printf("    %-36s %7d %12.2f %12.2f\n", row.Name, row.Count, row.TotalMS, row.SelfMS)
	}
}

// printFailures prints failed_frac and one line per failed op or check.
func printFailures(failed, attempted int, failures []string) {
	fmt.Printf("  %-22s %14.6f (%d of %d)\n", "failed_frac", failedFrac(failed, attempted), failed, attempted)
	for _, f := range failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
}

// printPerLayer prints a traced run's per-layer metrics, leaving out the
// layers the workload never calls.
func printPerLayer(layers map[string]value) {
	fmt.Println("  per-layer metrics from the traced run (a layer the workload never calls reports 0 and is left out):")
	for _, m := range perLayer {
		if v := layers[m.Name].Value; v != 0 {
			fmt.Printf("    %-44s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
}

func formatSizes(sizes map[string]int) string {
	var parts []string
	for _, k := range slices.Sorted(maps.Keys(sizes)) {
		parts = append(parts, fmt.Sprintf("%s=%d", k, sizes[k]))
	}
	return strings.Join(parts, " ")
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
