// Command benchreport regenerates every table and statistic of the
// paper's evaluation, prints paper-vs-measured side by side, and runs
// the scenario-catalog evaluation matrix whose scores are the repo's
// quality trajectory (BENCH_eval.json + markdown report, tracked
// PR-over-PR; see docs/evaluation.md). The paper's bands themselves are
// a tier-1 gate (TestPaperBands in internal/eval); at the default -seed 1
// this prints the numbers of exactly the runs it gates.
//
// Usage:
//
//	benchreport              # all experiments incl. the eval matrix
//	benchreport -exp e1      # only Table 1
//	benchreport -exp eval    # only the scenario x detector x miner matrix
//
// Experiments (see DESIGN.md §6-§7): e1 Table 1 itemsets; e2/e3 the
// GEANT 40-alarm statistics (94% useful, 26-28% additional evidence); e4
// the SWITCH 31-anomaly extraction; e5 flow-vs-packet support on UDP
// floods; e6 the self-tuning ablation; eval the full scenario-catalog
// ground-truth matrix.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cliflag"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/report"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment: "+expNames())
		seed      = flag.Uint64("seed", 1, "run seed (1 = the paper runs TestPaperBands gates)")
		jsonPath  = flag.String("json", "BENCH_eval.json", "eval: machine-readable report path (\"\" = skip)")
		mdPath    = flag.String("md", "BENCH_eval.md", "eval: markdown report path (\"\" = skip)")
		scenarios = flag.String("scenarios", "", "eval: comma-separated catalog scenarios (default: whole catalog)")
		detectors = flag.String("detectors", "", "eval: comma-separated alarm sources: synthesized and/or registered detectors (default: all)")
		miners    = flag.String("miners", "", "eval: comma-separated miner registry names (default: all)")
		quick     = flag.Bool("quick", false, "eval: reduced matrix for CI smoke runs")
		incidents = flag.Bool("incidents", false,
			"eval: also run the incident-mode column (alarm storm -> dedup + correlation -> one job per incident)")
		segFmt = flag.Int("segment-format", 0,
			"eval: flow-store segment format (1 = fixed rows, 2 = column blocks, 0 = library default); scores are format-independent")
		shards = flag.Int("shards", 0,
			"eval: partition every scenario store into N shards (0/1 = single store); scores are shard-independent")
		httpPeers = flag.Bool("http-peers", false,
			"eval: serve the shards over loopback HTTP and run the matrix through the remote-peer client (needs -shards >= 2)")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: benchreport [flags]

Regenerate the tables and statistics of the paper's evaluation and
print paper-vs-measured side by side (at the default -seed 1 these are
the runs TestPaperBands in internal/eval gates). The eval experiment
runs the scenario-catalog ground-truth matrix (docs/scenarios.md)
through every configured detector and miner via the public API and
writes BENCH_eval.json plus a markdown report — the quality trajectory
compared PR-over-PR (docs/evaluation.md).

Experiments (-exp, see DESIGN.md §6-§7):
`)
		for _, e := range experiments {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-5s %s\n", e.name, e.doc)
		}
		fmt.Fprint(flag.CommandLine.Output(), "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	cfg := evalFlags{
		jsonPath: *jsonPath, mdPath: *mdPath,
		scenarios: splitCSV(*scenarios), detectors: splitCSV(*detectors),
		miners: splitCSV(*miners), quick: *quick,
		incidents: *incidents, shards: *shards, httpPeers: *httpPeers,
		segmentFormat: cliflag.Narrow[uint16]("benchreport", "segment-format", *segFmt),
	}
	if err := run(os.Stdout, *exp, *seed, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		if errors.Is(err, errUnknownExp) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// evalFlags carries the eval-matrix flag set.
type evalFlags struct {
	jsonPath, mdPath             string
	scenarios, detectors, miners []string
	quick, incidents             bool
	segmentFormat                uint16
	shards                       int
	httpPeers                    bool
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// experiments is the one list of -exp names: it feeds the usage text,
// validates the flag and orders an "all" run.
var experiments = []struct {
	name, doc string
	run       func(w io.Writer, workDir string, seed uint64, cfg evalFlags) error
}{
	{"e1", "Table 1 itemsets for a NetReflex port-scan alarm", runE1},
	{"e2", "GEANT 40-alarm useful-extraction fraction (paper: 94%)", runE2E3},
	{"e3", "GEANT 40-alarm additional-evidence fraction (paper: 26-28%)", runE2E3},
	{"e4", "SWITCH 31-anomaly extraction (paper: all 31)", runE4},
	{"e5", "flow-only vs dual support across UDP flood sizes", runE5},
	{"e6", "self-tuning vs fixed minimum support", runE6},
	{"eval", "scenario catalog x detectors x miners, scored against ground truth", runEval},
}

// expNames is the -exp vocabulary, "all" first.
func expNames() string {
	names := "all"
	for _, e := range experiments {
		names += "|" + e.name
	}
	return names
}

// errUnknownExp marks a -exp value outside expNames: exit 2, not 1.
var errUnknownExp = errors.New("unknown experiment")

func run(w io.Writer, exp string, seed uint64, cfg evalFlags) error {
	var todo []func(io.Writer, string, uint64, evalFlags) error
	for _, e := range experiments {
		// e2 and e3 are two statistics of one run; "all" prints it once.
		if exp == e.name || exp == "all" && e.name != "e3" {
			todo = append(todo, e.run)
		}
	}
	if len(todo) == 0 {
		return fmt.Errorf("%w %q (valid: %s)", errUnknownExp, exp, expNames())
	}
	workDir, cleanup, err := eval.TempWorkDir()
	if err != nil {
		return err
	}
	defer cleanup()
	for _, runExp := range todo {
		if err := runExp(w, workDir, seed, cfg); err != nil {
			return err
		}
	}
	return nil
}

func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n===== %s: %s =====\n", id, title)
}

func runE1(w io.Writer, workDir string, _ uint64, _ evalFlags) error {
	header(w, "E1", "Table 1 — itemsets for a NetReflex port-scan alarm")
	t0 := time.Now()
	res, err := eval.RunTable1(workDir+"/table1", eval.DefaultTable1())
	if err != nil {
		return err
	}
	fmt.Fprint(w, res.Table().String())
	fmt.Fprintf(w, "\npaper Table 1 (anonymized): rows 312.59K / 270.74K flows for the two\n"+
		"scanners, 37.19K / 37.28K flows for the two port-80 DDoS itemsets.\n")
	fmt.Fprintf(w, "elapsed: %v\n", time.Since(t0).Round(time.Millisecond))
	return nil
}

func runE2E3(w io.Writer, workDir string, seed uint64, _ evalFlags) error {
	header(w, "E2+E3", "GEANT 40-alarm evaluation (1/100 sampled)")
	t0 := time.Now()
	suite, err := eval.PaperGEANT40(workDir+"/geant", seed)
	if err != nil {
		return err
	}
	t := report.New("", "metric", "paper", "measured")
	t.AddRow("alarms analyzed", "40", fmt.Sprintf("%d", len(suite.Evals)))
	t.AddRow("useful itemsets", "94%", fmt.Sprintf("%.1f%% (%d/%d)",
		100*suite.UsefulFraction(), suite.Useful(), len(suite.Evals)))
	t.AddRow("no meaningful flows", "6%", fmt.Sprintf("%.1f%%", 100*(1-suite.UsefulFraction())))
	t.AddRow("additional flows found", "26-28%", fmt.Sprintf("%.1f%% (%d/%d useful)",
		100*suite.AdditionalFraction(), suite.Additional(), suite.Useful()))
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "elapsed: %v\n", time.Since(t0).Round(time.Millisecond))
	return nil
}

func runE4(w io.Writer, workDir string, seed uint64, _ evalFlags) error {
	header(w, "E4", "SWITCH 31-anomaly evaluation (unsampled, histogram/KL detector)")
	t0 := time.Now()
	suite, err := eval.PaperSWITCH31(workDir+"/switch", seed)
	if err != nil {
		return err
	}
	fromDetector := 0
	for _, e := range suite.Evals {
		if e.AlarmSource == "detector" {
			fromDetector++
		}
	}
	t := report.New("", "metric", "paper", "measured")
	t.AddRow("anomalies analyzed", "31", fmt.Sprintf("%d", len(suite.Evals)))
	t.AddRow("extracted successfully", "31 (all)", fmt.Sprintf("%d (%.1f%%)",
		suite.Useful(), 100*suite.UsefulFraction()))
	t.AddRow("alarms from detector", "all", fmt.Sprintf("%d/%d (rest synthesized)",
		fromDetector, len(suite.Evals)))
	fmt.Fprint(w, t.String())
	fmt.Fprintf(w, "elapsed: %v\n", time.Since(t0).Round(time.Millisecond))
	return nil
}

func runE5(w io.Writer, workDir string, seed uint64, _ evalFlags) error {
	header(w, "E5", "flow- vs packet-support on point-to-point UDP floods")
	t0 := time.Now()
	rows, err := eval.PaperUDPFloodSweep(workDir+"/sweep", seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, sweepTable(rows))
	fmt.Fprintln(w, "paper: \"if an anomaly is not characterized by a significant volume of")
	fmt.Fprintln(w, "flows, Apriori cannot extract it ... for this reason we extended Apriori")
	fmt.Fprintln(w, "to also compute the support of an itemset in terms of packets\".")
	fmt.Fprintf(w, "elapsed: %v\n", time.Since(t0).Round(time.Millisecond))
	return nil
}

func runE6(w io.Writer, workDir string, seed uint64, _ evalFlags) error {
	header(w, "E6", "self-tuning minimum support ablation")
	t0 := time.Now()
	rows, err := eval.PaperTuningAblation(workDir+"/tuning", seed)
	if err != nil {
		return err
	}
	fmt.Fprint(w, tuningTable(rows))
	fmt.Fprintln(w, "paper: the extended Apriori \"automatically self-adjust[s] some of its")
	fmt.Fprintln(w, "configuration parameters to properly select meaningful itemsets\".")
	fmt.Fprintf(w, "elapsed: %v\n", time.Since(t0).Round(time.Millisecond))
	return nil
}

func found(b bool) string {
	if b {
		return "extracted"
	}
	return "MISSED"
}

// sweepTable renders the E5 rows.
func sweepTable(rows []eval.SweepRow) string {
	t := report.New("", "flood flows", "packets/flow", "flow-only Apriori", "extended Apriori")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.FloodFlows), fmt.Sprintf("%d", r.PacketsPerFlow),
			found(r.FlowOnlyFound), found(r.DualFound))
	}
	return t.String()
}

// tuningTable renders the E6 rows.
func tuningTable(rows []eval.TuningRow) string {
	t := report.New("", "intensity", "scan flows", "fixed support", "self-tuned", "tuning rounds")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.2f", r.Intensity), fmt.Sprintf("%d", r.ScanFlows),
			found(r.FixedUseful), found(r.SelfTunedUseful), fmt.Sprintf("%d", r.SelfTunedRounds))
	}
	return t.String()
}

// quickScenarios is the reduced -quick matrix: one representative of each
// major class, an expect-fail case and the two replayed-trace scenarios
// (exercising the trace reader end to end), sized for CI smoke runs.
var quickScenarios = []string{
	"portscan", "dns-amplification", "icmp-flood", "link-outage", "stealthy",
	"trace-ddos", "trace-portscan",
}

func runEval(w io.Writer, workDir string, seed uint64, cfg evalFlags) error {
	header(w, "EVAL", "scenario catalog x detectors x miners, scored against ground truth")
	pipeCfg := eval.PipelineConfig{
		Scenarios:     cfg.scenarios,
		Detectors:     cfg.detectors,
		Miners:        cfg.miners,
		Seed:          seed,
		WorkDir:       workDir + "/matrix",
		Incidents:     cfg.incidents,
		SegmentFormat: cfg.segmentFormat,
		Shards:        cfg.shards,
		HTTPPeers:     cfg.httpPeers,
	}
	if cfg.quick {
		if pipeCfg.Scenarios == nil {
			pipeCfg.Scenarios = quickScenarios
		}
		if pipeCfg.Detectors == nil {
			pipeCfg.Detectors = []string{eval.SynthesizedSource}
		}
	}
	t0 := time.Now()
	rep, err := eval.RunMatrix(pipeCfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "catalog: %s\n", strings.Join(gen.Names(), ", "))
	t := report.New("", "miner", "cells", "pass", "precision", "recall", "MRR", "peak itemsets")
	for _, m := range rep.PerMiner {
		t.AddRow(m.Miner, fmt.Sprintf("%d", m.Combos), fmt.Sprintf("%d", m.Pass),
			fmt.Sprintf("%.3f", m.MeanPrecision), fmt.Sprintf("%.3f", m.MeanRecall),
			fmt.Sprintf("%.3f", m.MeanReciprocalRank), fmt.Sprintf("%d", m.PeakItemsets))
	}
	t.AddRow("TOTAL", fmt.Sprintf("%d", rep.Totals.Combos), fmt.Sprintf("%d", rep.Totals.Pass),
		fmt.Sprintf("%.3f", rep.Totals.MeanPrecision), fmt.Sprintf("%.3f", rep.Totals.MeanRecall),
		fmt.Sprintf("%.3f", rep.Totals.MeanReciprocalRank), fmt.Sprintf("%d", rep.Totals.PeakItemsets))
	fmt.Fprint(w, t.String())
	for _, c := range rep.Combos {
		if c.Error != "" {
			fmt.Fprintf(w, "ERROR %s/%s/%s: %s\n", c.Scenario, c.Detector, c.Miner, c.Error)
		} else if !c.Pass {
			fmt.Fprintf(w, "FAIL  %s/%s/%s: useful=%v rank=%d\n",
				c.Scenario, c.Detector, c.Miner, c.Useful, c.RankOfTrueCause)
		}
	}

	if len(rep.Incidents) > 0 {
		fmt.Fprintln(w, "\nincident mode (storm -> dedup + correlation -> one job per incident):")
		it := report.New("", "scenario", "alarms", "incidents", "reduction", "jobs", "recall", "worst rank", "chain", "pass")
		for _, s := range rep.Incidents {
			chain := "-"
			if s.Composite {
				chain = fmt.Sprintf("%v", s.ChainOK)
			}
			it.AddRow(s.Scenario, fmt.Sprintf("%d", s.AlarmsIn), fmt.Sprintf("%d", s.Incidents),
				fmt.Sprintf("%.1fx", s.Reduction), fmt.Sprintf("%d", s.Jobs),
				fmt.Sprintf("%.2f", s.Recall), fmt.Sprintf("%d", s.WorstRank),
				chain, fmt.Sprintf("%v", s.Pass))
		}
		fmt.Fprint(w, it.String())
		for _, s := range rep.Incidents {
			if s.Error != "" {
				fmt.Fprintf(w, "ERROR %s (incident mode): %s\n", s.Scenario, s.Error)
			}
		}
	}

	if cfg.jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.jsonPath)
	}
	if cfg.mdPath != "" {
		if err := os.WriteFile(cfg.mdPath, []byte(rep.Markdown()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.mdPath)
	}
	fmt.Fprintf(w, "elapsed: %v\n", time.Since(t0).Round(time.Millisecond))
	return nil
}
