package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// setupReps is how many times one run builds its inputs from scratch;
// setup_s is the median, and the last build is the one measured.
const setupReps = 3

// env is what one run of one workload receives.
type env struct {
	seed    uint64
	seconds float64 // length of the timed section
	scale   float64 // multiplies every frozen size; 1 in a measured run
	dir     string  // scratch directory, private to the run
	tr      *tracer // nil with tracing off
}

// scaled applies -scale to a frozen size.
func (e *env) scaled(n int) int { return max(1, int(float64(n)*e.scale)) }

// outcome is what a workload's timed section hands back.
type outcome struct {
	byKind    map[string][]float64 // latency in ms of every timed op, per op kind
	rounds    []float64            // records per second over each round of ops
	diskBytes int64                // bytes the workload's store occupies
	diskRecs  int64                // records in that store
	attempted int
	failures  []string           // one line per failed op or check
	layers    map[string]float64 // per-layer metrics, traced runs only
}

// sample records the latency of one timed op of the given kind.
func (o *outcome) sample(kind string, ms float64) {
	if o.byKind == nil {
		o.byKind = map[string][]float64{}
	}
	o.byKind[kind] = append(o.byKind[kind], ms)
}

// round records the throughput of one round of ops.
func (o *outcome) round(records, wallS float64) {
	o.rounds = append(o.rounds, records/wallS)
}

// fail records a failed op or check.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// check counts one correctness check and records it when it fails.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.fail(format, args...)
	}
}

// layer sets one per-layer metric on a traced run.
func (o *outcome) layer(name string, v float64) {
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	o.layers[name] = v
}

// workload is one set of inputs and the timed ops run over them.
type workload struct {
	workloadDef
	// sizes are the frozen input sizes at scale 1, for the output record.
	sizes map[string]int
	// setup builds the inputs under dir from e.seed and returns the state
	// measure needs plus a func releasing it.
	setup func(e *env, dir string) (state any, release func(), err error)
	// measure runs timed ops for about e.seconds and checks their outputs.
	measure func(e *env, state any) (*outcome, error)
}

var workloads = []workload{extractMix, scanClustered, scanUniform, scanSharded, storeWrite, liveReplay}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is the full record of one run; the driver's last-line JSON
// is a projection of it.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Scale     float64          `json:"scale"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Failures  []string         `json:"failures,omitempty"`
	Samples   int              `json:"samples"`
	TailPct   int              `json:"supported_tail_percentile"`
	TailMS    float64          `json:"supported_tail_ms"`
	EndToEnd  map[string]value `json:"end_to_end"`
	PerLayer  map[string]value `json:"per_layer,omitempty"`
	Spans     []layerRow       `json:"span_table,omitempty"`
	Sizes     map[string]int   `json:"sizes"`
}

// runOne sets the workload up setupReps times, measures the last build
// and assembles every metric.
func runOne(w workload, e *env) (*runResult, error) {
	var (
		state   any
		release func()
		setups  []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("setup%d", rep))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		var err error
		state, release, err = w.setup(e, dir)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", w.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if rep < setupReps-1 {
			// Drop this build before the next, so peak memory is one
			// build's, not a sum that depends on when the collector ran.
			release()
			state = nil
			os.RemoveAll(dir)
			debug.FreeOSMemory()
		}
	}
	defer release()
	debug.FreeOSMemory() // start every timed section from a collected heap

	out, err := w.measure(e, state)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if len(out.byKind) == 0 || len(out.rounds) == 0 || out.diskRecs == 0 {
		return nil, fmt.Errorf("%s: timed section produced no samples", w.Name)
	}

	// Both latencies are taken over op kinds, each kind standing by its
	// median: a pooled percentile of a mix sits on the gap between two
	// kinds' latency clusters and jumps when one kind crosses it. The slow
	// op is the slowest kind; a workload with one kind of op has a hundred
	// samples of it and reports their 90th percentile.
	var pooled, kindMedians []float64
	for _, ms := range out.byKind {
		pooled = append(pooled, ms...)
		kindMedians = append(kindMedians, median(ms))
	}
	asc := sorted(pooled)
	res := &runResult{
		Workload: w.Name, Seed: e.seed, Seconds: e.seconds, Scale: e.scale, Traced: e.tr != nil,
		Attempted: out.attempted, Failed: len(out.failures), Failures: out.failures,
		Correct: len(out.failures) == 0,
		Samples: len(asc), TailPct: supportedTail(len(asc)),
		Sizes: map[string]int{},
	}
	for k, v := range w.sizes {
		res.Sizes[k] = e.scaled(v)
	}
	res.TailMS = percentile(asc, float64(res.TailPct))
	slow := slices.Max(kindMedians)
	if len(kindMedians) == 1 {
		slow = percentile(asc, 90)
	}
	measured := map[string]float64{
		"op_p50_ms":          median(kindMedians),
		"op_slow_ms":         slow,
		"krec_per_s":         median(out.rounds) / 1e3,
		"disk_bytes_per_rec": float64(out.diskBytes) / float64(out.diskRecs),
		"peak_rss_mb":        peakRSSMB(),
		"setup_s":            median(setups),
	}
	res.EndToEnd = map[string]value{}
	for _, m := range endToEnd {
		res.EndToEnd[m.Name] = value{measured[m.Name], m.Unit}
	}
	if e.tr != nil {
		res.PerLayer = map[string]value{}
		for _, m := range perLayer {
			res.PerLayer[m.Name] = value{out.layers[m.Name], m.Unit}
		}
		for name := range out.layers {
			if _, ok := res.PerLayer[name]; !ok {
				return nil, fmt.Errorf("%s reported unlisted per-layer metric %q", w.Name, name)
			}
		}
		res.Spans = e.tr.table()
	}
	return res, nil
}

// peakRSSMB is this process's maximum resident set so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// dirBytes sums the regular files under dir: segments plus sidecars.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// untilElapsed runs round repeatedly until seconds have passed, always
// finishing the round it started so every run times the same op mix.
func untilElapsed(seconds float64, round func() error) error {
	t0 := time.Now()
	for {
		if err := round(); err != nil {
			return err
		}
		if time.Since(t0).Seconds() >= seconds {
			return nil
		}
	}
}

// timed runs fn inside a span and returns its wall time in milliseconds.
func timed(tr *tracer, op, parent int, name string, fn func() error) (float64, error) {
	t0 := time.Now()
	err := tr.call(op, parent, name, fn)
	return float64(time.Since(t0).Nanoseconds()) / 1e6, err
}

// medianSpanMS is the median duration of the named spans, 0 with none.
func medianSpanMS(tr *tracer, name string) float64 { return median(tr.durationsMS(name)) }

// failedFrac is ops failed or refused over ops attempted.
func failedFrac(failed, attempted int) float64 { return float64(failed) / float64(max(1, attempted)) }

var bg = context.Background()
