package eval

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"strings"
	"time"

	rootcause "repro"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/miner"
)

// SynthesizedSource is the pseudo-detector name selecting ground-truth
// alarm synthesis in PipelineConfig.Detectors: every scenario contributes
// one alarm built from its primary anomaly's signature, independent of
// detector recall (the paper's evaluations also start from a given alarm
// set).
const SynthesizedSource = "synthesized"

// PipelineConfig parameterizes a full evaluation-matrix run: every
// selected scenario is generated once, alarm-sourced per detector, and
// extracted per miner — all through the public rootcause API.
type PipelineConfig struct {
	// Scenarios selects catalog entries by name (nil = the whole
	// catalog, gen.Names()).
	Scenarios []string
	// Detectors are the alarm sources: SynthesizedSource and/or
	// registered detector names. A registered detector that does not
	// flag the anomaly bin falls back to a synthesized alarm, recorded
	// in ComboScore.AlarmSource. Nil = SynthesizedSource plus every
	// registered detector.
	Detectors []string
	// Miners selects frequent-itemset miners by registry name (nil =
	// every registered miner).
	Miners []string
	// Seed drives all scenario generation; each scenario derives its
	// generation seed from Seed and its own name, so adding or removing
	// scenarios never reshuffles the others.
	Seed uint64
	// SampleRate applies 1-in-N packet sampling during generation
	// (0 or 1 = unsampled).
	SampleRate uint32
	// WorkDir hosts the per-scenario stores ("" = temp dir, removed
	// afterwards).
	WorkDir string
	// Incidents adds the incident-mode column: per scenario, a
	// synthesized alarm storm is correlated into incidents and each
	// incident extracted through ONE job, scored jointly against the
	// full ground truth (see IncidentScore). Composite scenarios prove
	// one correlated extraction recovers every cause.
	Incidents bool
	// SegmentFormat selects the flow-store segment format the scenario
	// stores are written in (nfstore.FormatV1 or FormatV2; 0 = the
	// library default). Scores must be identical across formats — CI
	// compares the reports byte for byte.
	SegmentFormat uint16
	// Shards partitions every scenario store into N shards (0/1 = the
	// plain single-directory store). Scores must be identical across
	// shard counts — CI compares the reports modulo wall-clock.
	Shards int
	// HTTPPeers serves each shard from its own loopback HTTP server and
	// runs the matrix through the remote-peer client — the full rcad
	// cluster read path. Requires Shards >= 2.
	HTTPPeers bool
	// Ranking selects the itemset scoring mode for every extraction
	// (rootcause.RankingSupport / RankingLift / RankingWeighted; "" =
	// the engine default, support).
	Ranking string
}

// ComboScore is the outcome of one scenario × detector × miner cell.
type ComboScore struct {
	Scenario   string `json:"scenario"`
	Kind       string `json:"kind"`
	ExpectFail bool   `json:"expect_fail,omitempty"`
	Detector   string `json:"detector"`
	// AlarmSource is "detector" when the configured detector flagged the
	// anomaly bin, else "synthesized".
	AlarmSource string `json:"alarm_source"`
	// DetectorError records a detection failure (the cell then falls back
	// to a synthesized alarm so extraction is still scored).
	DetectorError string `json:"detector_error,omitempty"`
	Miner         string `json:"miner"`
	Itemsets      int    `json:"itemsets"`
	// Useful / Additional are the paper's alarm-level statistics
	// (purity-based usefulness, evidence beyond the alarm meta-data).
	Useful     bool `json:"useful"`
	Additional bool `json:"additional,omitempty"`
	// Precision, Recall and RankOfTrueCause are the ground-truth scores
	// (see TruthScore).
	Precision       float64 `json:"precision"`
	Recall          float64 `json:"recall"`
	RankOfTrueCause int     `json:"rank_of_true_cause"`
	// Pass is the cell verdict: expect-fail scenarios must stay
	// non-useful, all others must attribute the true cause.
	Pass bool `json:"pass"`
	// WallMS is the extraction wall-clock (generation and scoring
	// excluded).
	WallMS float64 `json:"wall_ms"`
	Error  string  `json:"error,omitempty"`
}

// MatrixTotals aggregates a set of combo cells. Precision/recall/MRR
// means cover only non-expect-fail cells (expect-fail scenarios have no
// extractable truth).
type MatrixTotals struct {
	Combos        int     `json:"combos"`
	Pass          int     `json:"pass"`
	MeanPrecision float64 `json:"mean_precision"`
	MeanRecall    float64 `json:"mean_recall"`
	// MeanReciprocalRank averages 1/rank of the true cause (0 when
	// missed) over non-expect-fail cells.
	MeanReciprocalRank float64 `json:"mean_reciprocal_rank"`
	// PeakItemsets is the largest ranked list any cell reported.
	PeakItemsets int     `json:"peak_itemsets"`
	WallMS       float64 `json:"wall_ms"`
}

// MinerTotals is the per-miner aggregate row of a matrix report.
type MinerTotals struct {
	Miner string `json:"miner"`
	MatrixTotals
}

// MatrixReport is the full evaluation-matrix outcome — the payload of
// BENCH_eval.json (docs/evaluation.md documents the format and how to
// compare reports PR-over-PR).
type MatrixReport struct {
	// Version is the report format version; bump on breaking changes.
	Version    int      `json:"version"`
	Seed       uint64   `json:"seed"`
	SampleRate uint32   `json:"sample_rate,omitempty"`
	JobPath    bool     `json:"job_path"`
	Scenarios  []string `json:"scenarios"`
	Detectors  []string `json:"detectors"`
	Miners     []string `json:"miners"`
	// WallMS is the end-to-end run wall-clock including generation.
	WallMS   float64       `json:"wall_ms"`
	Totals   MatrixTotals  `json:"totals"`
	PerMiner []MinerTotals `json:"per_miner"`
	Combos   []ComboScore  `json:"combos"`
	// Incidents is the incident-mode column (PipelineConfig.Incidents):
	// one row per scenario.
	Incidents []IncidentScore `json:"incidents,omitempty"`
}

// MatrixReportVersion is the current MatrixReport.Version.
const MatrixReportVersion = 1

// scenarioSeed derives a scenario's generation seed from the run seed and
// the scenario name, so matrix composition never reshuffles individual
// scenarios.
func scenarioSeed(base uint64, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return base*0x9e3779b9 + h.Sum64()
}

// RunMatrix evaluates every selected scenario × detector × miner cell
// through the public rootcause API and aggregates the report. Scenario
// generation or store failures abort the run; per-cell extraction errors
// are recorded in the cell and the matrix continues.
func RunMatrix(cfg PipelineConfig) (*MatrixReport, error) {
	t0 := time.Now()
	scenarios := cfg.Scenarios
	if len(scenarios) == 0 {
		scenarios = gen.Names()
	}
	detectors := cfg.Detectors
	if len(detectors) == 0 {
		detectors = append([]string{SynthesizedSource}, detector.Names()...)
	} else {
		// Fail fast on typos: a misspelled detector would otherwise
		// silently degrade every cell to its synthesized fallback.
		registered := make(map[string]bool)
		for _, n := range detector.Names() {
			registered[n] = true
		}
		for _, d := range detectors {
			if d != SynthesizedSource && !registered[d] {
				return nil, fmt.Errorf("eval: unknown detector %q (have: %s)",
					d, strings.Join(append([]string{SynthesizedSource}, detector.Names()...), ", "))
			}
		}
	}
	miners := cfg.Miners
	if len(miners) == 0 {
		miners = miner.Names()
	}
	cfg.Detectors, cfg.Miners = detectors, miners
	workDir, cleanup, err := workDirOr(cfg.WorkDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()

	report := &MatrixReport{
		Version:    MatrixReportVersion,
		Seed:       cfg.Seed,
		SampleRate: cfg.SampleRate,
		JobPath:    true, // extractions always run Submit → Wait; kept so reports stay comparable
		Scenarios:  scenarios,
		Detectors:  detectors,
		Miners:     miners,
	}
	for _, name := range scenarios {
		def, ok := gen.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("eval: unknown scenario %q (catalog: %s)",
				name, strings.Join(gen.Names(), ", "))
		}
		sc := def.Scenario(scenarioSeed(cfg.Seed, def.Name))
		sc.SampleRate = cfg.SampleRate
		cells, incScore, err := runScenario(sc, cfg, filepath.Join(workDir, "scenario-"+def.Name), def.Name, def.ExpectFail)
		if err != nil {
			return nil, fmt.Errorf("eval: scenario %s: %w", name, err)
		}
		report.Combos = append(report.Combos, cells...)
		if incScore != nil {
			report.Incidents = append(report.Incidents, *incScore)
		}
	}
	report.WallMS = float64(time.Since(t0).Microseconds()) / 1000
	report.Totals = totals(report.Combos)
	for _, m := range miners {
		var cells []ComboScore
		for _, c := range report.Combos {
			if c.Miner == m {
				cells = append(cells, c)
			}
		}
		report.PerMiner = append(report.PerMiner, MinerTotals{Miner: m, MatrixTotals: totals(cells)})
	}
	return report, nil
}

// workDirOr returns dir, or a fresh temp directory that the returned
// cleanup removes when dir is "".
func workDirOr(dir string) (string, func(), error) {
	if dir != "" {
		return dir, func() {}, nil
	}
	return TempWorkDir()
}

// runScenario is the one scenario-run path of the matrix and the paper
// suites: it generates sc into a fresh system under storeDir, then per
// detector column sources an alarm on the anomaly bin, and per miner
// extracts it through the job manager and scores the result against
// ground truth (plus the incident-mode column when configured).
// Extraction and detection errors are recorded in their cells.
func runScenario(sc *gen.Scenario, cfg PipelineConfig, storeDir, name string, expectFail bool) ([]ComboScore, *IncidentScore, error) {
	ctx := context.Background()
	sys, truth, cleanup, err := buildScenarioSystem(sc, cfg, storeDir)
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()

	// Incident mode runs first, on the pristine alarm DB: the storm it
	// synthesizes (and correlates) must not mix with the per-cell alarms
	// the detector columns file below.
	var incScore *IncidentScore
	if cfg.Incidents {
		s := runScenarioIncidents(name, expectFail, sys, truth)
		incScore = &s
	}

	// The bin a detector must flag to count as the alarm source: the
	// primary anomaly's interval, or the middle bin for quiet traces.
	anomalyIv := quietAlarmInterval(sc, sys.Store().BinSeconds())
	kind := detector.KindUnknown
	if len(truth.Entries) > 0 {
		anomalyIv = truth.Entries[0].Interval
		kind = truth.Entries[0].Kind
	}

	var cells []ComboScore
	for _, det := range cfg.Detectors {
		alarmID, source, detErr := sourceAlarm(ctx, sys, det, truth, anomalyIv, kind)
		entry, err := sys.Alarm(alarmID)
		if err != nil {
			return nil, nil, err
		}
		for _, m := range cfg.Miners {
			cell := ComboScore{
				Scenario: name, Kind: string(kind), ExpectFail: expectFail,
				Detector: det, AlarmSource: source, DetectorError: detErr, Miner: m,
			}
			res, wall, err := extractCell(ctx, sys, alarmID,
				rootcause.WithMiner(m), rootcause.WithRanking(cfg.Ranking)) // "" ranking = the default
			cell.WallMS = wall
			if err != nil {
				cell.Error = err.Error()
				cells = append(cells, cell)
				continue
			}
			if err := scoreCell(&cell, sys, &entry.Alarm, res, truth); err != nil {
				return nil, nil, err
			}
			cells = append(cells, cell)
		}
	}
	return cells, incScore, nil
}

// buildScenarioSystem creates a system under storeDir, generates sc
// into it, and — in HTTP-peer mode — republishes the freshly written
// shards behind loopback HTTP servers and reopens the system through the
// remote-peer client, so the matrix exercises the full cluster read
// path. The zero PipelineConfig builds a plain single-directory store.
// The returned cleanup closes everything in either mode.
func buildScenarioSystem(sc *gen.Scenario, cfg PipelineConfig, storeDir string) (*rootcause.System, *gen.Truth, func(), error) {
	if cfg.HTTPPeers && cfg.Shards < 2 {
		return nil, nil, nil, fmt.Errorf("eval: HTTPPeers requires Shards >= 2 (got %d)", cfg.Shards)
	}
	var sysOpts []rootcause.Option
	if cfg.SegmentFormat != 0 {
		sysOpts = append(sysOpts, rootcause.WithSegmentFormat(cfg.SegmentFormat))
	}
	if cfg.Shards > 1 {
		sysOpts = append(sysOpts, rootcause.WithShards(cfg.Shards))
	}
	sys, err := rootcause.Create(rootcause.Config{StoreDir: storeDir}, sysOpts...)
	if err != nil {
		return nil, nil, nil, err
	}

	truth, err := sc.Generate(sys.Store())
	if err != nil {
		sys.Close()
		return nil, nil, nil, err
	}
	if !cfg.HTTPPeers {
		return sys, truth, func() { sys.Close() }, nil
	}

	// Cluster mode: hand each shard directory to its own HTTP server and
	// reopen the system as a remote-peer client over them.
	if err := sys.Close(); err != nil {
		return nil, nil, nil, err
	}
	peers, stopPeers, err := ServeShardDirs(storeDir)
	if err != nil {
		return nil, nil, nil, err
	}
	remote, err := rootcause.Open(rootcause.Config{}, rootcause.WithPeers(peers))
	if err != nil {
		stopPeers()
		return nil, nil, nil, err
	}
	return remote, truth, func() { remote.Close(); stopPeers() }, nil
}

// quietAlarmInterval is the middle-bin interval a scenario with no
// placements is alarmed on (the quiet / false-positive case).
func quietAlarmInterval(sc *gen.Scenario, binSec uint32) flow.Interval {
	start := sc.StartTime - sc.StartTime%binSec
	bin := uint32(sc.Bins / 2)
	return flow.Interval{
		Start: start + bin*binSec,
		End:   start + (bin+1)*binSec,
	}
}

// sourceAlarm produces the alarm for one detector column: a synthesized
// ground-truth alarm for SynthesizedSource, otherwise the configured
// detector's own alarm on the anomaly bin. A detector that errors or
// does not flag the bin falls back to the synthesized alarm (the
// paper's evaluations also start from a given alarm set, not from
// detector recall); a detection error is reported back for the cells.
func sourceAlarm(ctx context.Context, sys *rootcause.System, det string, truth *gen.Truth, anomalyIv flow.Interval, kind detector.Kind) (id, source, detErr string) {
	if det != SynthesizedSource {
		ids, err := sys.Detect(ctx, det, truth.Span)
		if err != nil {
			detErr = err.Error()
		}
		for _, aid := range ids {
			entry, err := sys.Alarm(aid)
			if err != nil {
				detErr = err.Error()
				break
			}
			if entry.Alarm.Interval.Overlaps(anomalyIv) {
				return aid, "detector", ""
			}
		}
	}
	return sys.FileAlarm(synthesizedAlarm(truth, anomalyIv, kind)), SynthesizedSource, detErr
}

// synthesizedAlarm builds the ground-truth alarm: the primary anomaly's
// signature, or a plausible-looking false positive for quiet traces.
func synthesizedAlarm(truth *gen.Truth, anomalyIv flow.Interval, kind detector.Kind) detector.Alarm {
	if len(truth.Entries) > 0 {
		return SynthesizeAlarm(&truth.Entries[0])
	}
	return detector.Alarm{
		Detector: SynthesizedSource, Interval: anomalyIv,
		Kind: detector.KindDDoS, Score: 1.1,
		Meta: []detector.MetaItem{
			{Feature: flow.FeatDstIP, Value: uint32(flow.IPFromOctets(198, 18, 0, 0))},
			{Feature: flow.FeatDstPort, Value: 80},
		},
	}
}

// extractCell runs one extraction on the production path — the job
// manager, Submit → Wait, under the per-call options (miner, ranking,
// ablation settings) — and returns the result (nil when the interval
// held nothing to mine) and the wall-clock in milliseconds.
func extractCell(ctx context.Context, sys *rootcause.System, alarmID string, opts ...rootcause.Option) (*rootcause.Result, float64, error) {
	t0 := time.Now()
	var res *rootcause.Result
	jobID, err := sys.Submit(rootcause.JobRequest{AlarmID: alarmID}, append(opts, rootcause.WithTransientJob())...)
	if err == nil {
		var jr *rootcause.JobResult
		if jr, err = sys.Wait(ctx, jobID); err == nil {
			res = jr.Result
		}
	}
	wall := float64(time.Since(t0).Microseconds()) / 1000
	if errors.Is(err, core.ErrNoCandidates) {
		return nil, wall, nil
	}
	return res, wall, err
}

// scoreCell fills one cell's ground-truth and alarm-level scores.
func scoreCell(cell *ComboScore, sys *rootcause.System, alarm *detector.Alarm, res *rootcause.Result, truth *gen.Truth) error {
	opts := DefaultScoreOptions()
	ts, err := ScoreTruth(sys.Store(), alarm.Interval, res, truth, opts)
	if err != nil {
		return err
	}
	cell.Precision = ts.Precision
	cell.Recall = ts.Recall
	cell.RankOfTrueCause = ts.Rank
	if res != nil {
		cell.Itemsets = len(res.Itemsets)
		as, err := ScoreResult(sys.Store(), alarm, res, opts)
		if err != nil {
			return err
		}
		cell.Useful = as.Useful
		cell.Additional = as.Additional
	}
	if cell.ExpectFail {
		cell.Pass = !cell.Useful
	} else {
		cell.Pass = cell.Useful && cell.RankOfTrueCause >= 1
	}
	return nil
}

// totals aggregates a cell set (see MatrixTotals for the conventions).
func totals(cells []ComboScore) MatrixTotals {
	var t MatrixTotals
	scored := 0
	var sumP, sumR, sumRR float64
	for _, c := range cells {
		t.Combos++
		if c.Pass {
			t.Pass++
		}
		if c.Itemsets > t.PeakItemsets {
			t.PeakItemsets = c.Itemsets
		}
		t.WallMS += c.WallMS
		if c.ExpectFail || c.Error != "" {
			continue
		}
		scored++
		sumP += c.Precision
		sumR += c.Recall
		if c.RankOfTrueCause > 0 {
			sumRR += 1 / float64(c.RankOfTrueCause)
		}
	}
	if scored > 0 {
		t.MeanPrecision = sumP / float64(scored)
		t.MeanRecall = sumR / float64(scored)
		t.MeanReciprocalRank = sumRR / float64(scored)
	}
	return t
}
