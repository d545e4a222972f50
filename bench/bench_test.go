package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 0}, {12, 0}, {19, 0}, // even the median lacks ten samples beyond it
		{20, 50}, {72, 86}, {100, 90}, {108, 90}, {200, 95}, {1000, 99}, {100000, 99},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule itself: at least minBeyond samples lie beyond the percentile.
	for n := 20; n < 500; n++ {
		p := supportedTail(n)
		if beyond := float64(n) * float64(100-p) / 100; beyond < minBeyond {
			t.Fatalf("n=%d: p%d leaves %.1f samples beyond it", n, p, beyond)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	asc := []float64{1, 2, 3, 4, 5}
	for p, want := range map[float64]float64{0: 1, 50: 3, 90: 4.6, 100: 5} {
		if got := percentile(asc, p); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
	if got := median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	// Python: statistics.quantiles([3, 1, 4, 1, 5, 9, 2, 6, 5, 3], n=4)
	// gives [1.75, 3.5, 5.25].
	q1, q2, q3 := quartiles([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	if q1 != 1.75 || q2 != 3.5 || q3 != 5.25 {
		t.Errorf("quartiles = %v %v %v, want 1.75 3.5 5.25", q1, q2, q3)
	}
	if got := spread([]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a: 30..40 counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 30, 5: 5}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestTracerNilAndTable(t *testing.T) {
	var off *tracer
	id := off.begin(off.newOp(), 0, "x")
	off.end(id)
	if off.table() != nil || off.durationsMS("x") != nil {
		t.Error("a nil tracer must record nothing")
	}
	tr := newTracer()
	op := tr.newOp()
	root := tr.begin(op, 0, "root")
	tr.add(op, root, "child", tr.t0.Add(time.Millisecond), tr.t0.Add(3*time.Millisecond))
	tr.end(root)
	rows := tr.table()
	if len(rows) != 2 || rows[0].Name != "child" || rows[0].TotalMS != 2 || rows[1].Count != 1 {
		t.Errorf("table = %+v", rows)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 2 || back[1].Parent != root || back[1].Op != op {
		t.Errorf("spans round trip: %v %+v", err, back)
	}
}

func TestBoundComparison(t *testing.T) {
	lat := metricDef{Name: "op_p50_ms", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "krec_per_s", Better: higher, Bound: 0.10}
	steady := func(v float64) summary { return summary{Median: v, Values: []float64{v, v * 1.01, v * 0.99, v}} }
	noisy := func(v float64) summary { return summary{Median: v, Values: []float64{v * 0.7, v, v * 1.3, v * 1.4}} }
	for _, c := range []struct {
		name string
		m    metricDef
		o, n summary
		want string
	}{
		{"latency within bound", lat, steady(100), steady(109), verdictOK},
		{"latency beyond bound", lat, steady(100), steady(111), verdictRegression},
		{"latency improved", lat, steady(100), steady(50), verdictOK},
		{"rate within bound", rate, steady(100), steady(91), verdictOK},
		{"rate beyond bound", rate, steady(100), steady(89), verdictRegression},
		{"rate improved", rate, steady(100), steady(150), verdictOK},
		{"spread wider than bound", lat, noisy(100), steady(150), verdictUnresolved},
	} {
		if got := judge(c.m, c.o, c.n); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(p50 float64, failed int) *suiteResult {
		s := &suiteResult{Runs: 3, Workloads: map[string]*suiteWorkload{}}
		for _, w := range workloads {
			sw := &suiteWorkload{Attempted: 100, Failed: failed, EndToEnd: map[string]summary{}}
			for _, m := range endToEnd {
				sw.EndToEnd[m.Name] = summary{Unit: m.Unit, Median: 50, Values: []float64{50, 50, 50}}
			}
			sw.EndToEnd["op_p50_ms"] = summary{Unit: "ms", Median: p50, Values: []float64{p50, p50, p50}}
			s.Workloads[w.Name] = sw
		}
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *suiteResult) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bound := endToEnd[0].Bound // op_p50_ms
	base, failing := write("a.json", mk(50, 0)), write("d.json", mk(50, 1))
	same, slow := write("b.json", mk(50*(1+bound/2), 0)), write("c.json", mk(50*(1+bound*3/2), 0))
	var out bytes.Buffer
	if err := compareFiles(&out, base, same); err != nil {
		t.Errorf("half the bound slower must pass: %v\n%s", err, out.String())
	}
	if rows := strings.Count(out.String(), "\n"); rows != 3+len(workloads)*(len(endToEnd)+1) {
		t.Errorf("want one row per (metric, workload), got %d lines:\n%s", rows, out.String())
	}
	if err := compareFiles(&out, base, slow); err == nil {
		t.Error("one and a half times the bound slower must fail")
	}
	if err := compareFiles(&out, base, failing); err == nil {
		t.Error("a rise in failed ops must fail")
	}
	// The suite file survives a round trip unchanged.
	back, err := readSuite(base)
	if err != nil || !reflect.DeepEqual(back, mk(50, 0)) {
		t.Errorf("suite round trip: %v", err)
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the tables in metrics.go")

// benchmarkFile is the schema of ../BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func wantBenchmarkFile() benchmarkFile {
	f := benchmarkFile{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		f.Workloads = append(f.Workloads, w.workloadDef)
	}
	for _, m := range endToEnd {
		f.EndToEnd = append(f.EndToEnd, e2eDef(m))
	}
	for _, m := range perLayer {
		f.PerLayer = append(f.PerLayer, layerDef{m.Name, m.Unit, m.Better})
	}
	return f
}

// TestBenchmarkJSON keeps ../BENCHMARK.json and the tables in metrics.go
// the same, and both inside the limits the driver enforces.
func TestBenchmarkJSON(t *testing.T) {
	want := wantBenchmarkFile()
	const path = "../BENCHMARK.json"
	if *update {
		if err := writeJSON(path, want); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s differs from metrics.go; run `go test -run TestBenchmarkJSON -update`", path)
	}
	if len(data) > 64<<10 {
		t.Errorf("%s is %d bytes, limit 64 KiB", path, len(data))
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(want.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	for _, w := range want.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(want.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(want.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	var hasSetup bool
	for _, m := range want.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range want.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	// 4 + 22 runs per workload, each with its set-ups, inside 3420 s.
	if runs := 4 + 22*len(want.Workloads); float64(runs)*(runSeconds+12) > 3420 {
		t.Errorf("%d runs of %d s plus set-up do not fit the driver's 3420 s", runs, runSeconds)
	}
}

// TestSmokeAllWorkloads runs every workload, traced, at a hundredth of
// its size, so `go test` keeps the whole harness compiling and running.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			e := &env{seed: 1, seconds: 0.05, scale: 0.01, dir: t.TempDir(), tr: newTracer()}
			res, err := runOne(w, e)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range endToEnd {
				if v := res.EndToEnd[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want a positive number", m.Name, v)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("%d per-layer metrics reported, want all %d", len(res.PerLayer), len(perLayer))
			}
			var nonZero int
			for _, v := range res.PerLayer {
				if v.Value != 0 {
					nonZero++
				}
			}
			if nonZero == 0 || len(res.Spans) == 0 {
				t.Error("a traced run must report spans and per-layer metrics of its own layers")
			}
			// The run record and the driver's line survive JSON unchanged.
			data, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var back runResult
			if err := json.Unmarshal(data, &back); err != nil || !reflect.DeepEqual(&back, res) {
				t.Errorf("run result round trip: %v", err)
			}
			var line map[string]json.RawMessage
			data, _ = json.Marshal(res.driverLine())
			if err := json.Unmarshal(data, &line); err != nil || len(line) != 4 {
				t.Errorf("driver line must have exactly correct, attempted, failed, metrics: %s", data)
			}
			for _, f := range res.Failures {
				t.Errorf("check failed: %s", f)
			}
		})
	}
}
