package eval

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/miner"
)

// catalogMatrix runs the whole scenario catalog, the replayed-trace
// entries included, once through every registered miner with
// synthesized ground-truth alarms at seed 7, and shares the report
// among the catalog tests below.
var catalogMatrix = sync.OnceValues(func() (*MatrixReport, error) {
	return RunMatrix(PipelineConfig{
		Detectors: []string{SynthesizedSource},
		Seed:      7,
	})
})

// catalogReport returns the shared catalog run, failing t on error.
func catalogReport(t *testing.T) *MatrixReport {
	t.Helper()
	report, err := catalogMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Scenarios) != len(gen.Names()) {
		t.Fatalf("matrix covered %d scenarios, want the whole catalog (%d)",
			len(report.Scenarios), len(gen.Names()))
	}
	return report
}

// catalogRanks maps miner -> scenario -> rank of the true cause over the
// cells expected to extract.
func catalogRanks(report *MatrixReport) map[string]map[string]int {
	rank := map[string]map[string]int{}
	for _, c := range report.Combos {
		if c.Error != "" || c.ExpectFail {
			continue
		}
		if rank[c.Miner] == nil {
			rank[c.Miner] = map[string]int{}
		}
		rank[c.Miner][c.Scenario] = c.RankOfTrueCause
	}
	return rank
}

// TestMatrixAprioriFloors pins the per-cell quality floors over the
// catalog run: every non-expect-fail cell of every miner must extract a
// useful, truth-attributed itemset list with the true cause in the top
// 3, and each miner's mean precision, recall and MRR must hold their
// floors. This is the quality trajectory BENCH_eval.json tracks across
// PRs.
func TestMatrixAprioriFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	report := catalogReport(t)
	for _, c := range report.Combos {
		t.Logf("%-8s %-18s useful=%-5v itemsets=%-3d precision=%.2f recall=%.2f rank=%d pass=%v err=%q",
			c.Miner, c.Scenario, c.Useful, c.Itemsets, c.Precision, c.Recall, c.RankOfTrueCause, c.Pass, c.Error)
		if c.Error != "" {
			t.Errorf("%s/%s: extraction error: %s", c.Miner, c.Scenario, c.Error)
			continue
		}
		if c.ExpectFail {
			if c.Useful {
				t.Errorf("%s/%s: expect-fail scenario produced useful itemsets", c.Miner, c.Scenario)
			}
			continue
		}
		if !c.Pass {
			t.Errorf("%s/%s: did not pass (useful=%v rank=%d)", c.Miner, c.Scenario, c.Useful, c.RankOfTrueCause)
		}
		if c.RankOfTrueCause < 1 || c.RankOfTrueCause > 3 {
			t.Errorf("%s/%s: true cause ranked %d, want top 3", c.Miner, c.Scenario, c.RankOfTrueCause)
		}
		// The self-tuning engine deliberately reports a minimum-length
		// ranked list, so single-anomaly scenarios carry background tail
		// itemsets: the per-scenario floor is low, the aggregate floors
		// below carry the trajectory. fda's shorter lists can hold one
		// correct itemset in 4-9 (precision 0.11-0.25 on 9 of seeds
		// 1-40), so only its mean is floored.
		if c.Miner != "fda" && c.Precision < 0.3 {
			t.Errorf("%s/%s: precision %.2f below per-scenario floor 0.3", c.Miner, c.Scenario, c.Precision)
		}
	}
	for _, pm := range report.PerMiner {
		if pm.MeanPrecision < 0.8 {
			t.Errorf("%s: mean precision %.3f below floor 0.8", pm.Miner, pm.MeanPrecision)
		}
		if pm.MeanRecall < 0.9 {
			t.Errorf("%s: mean recall %.3f below floor 0.9", pm.Miner, pm.MeanRecall)
		}
		if pm.MeanReciprocalRank < 0.9 {
			t.Errorf("%s: MRR %.3f below floor 0.9", pm.Miner, pm.MeanReciprocalRank)
		}
	}
}

// TestMinerComparisonCatalog holds the three-way miner comparison over
// the catalog run to the acceptance floors: the catalog carries at least
// two replayed-trace scenarios; on scenarios expected to extract, each
// of apriori, fpgrowth and fda attributes the true cause everywhere with
// mean itemset precision >= 0.8, mean anomaly recall >= 0.9 and mean
// true-cause rank <= 3; and fda's significance pre-filter, which may
// only drop itemsets, never ranks the true cause below fpgrowth's.
func TestMinerComparisonCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog comparison is slow")
	}
	traces := 0
	for _, name := range gen.Names() {
		if name == "trace-ddos" || name == "trace-portscan" {
			traces++
		}
	}
	if traces < 2 {
		t.Fatalf("catalog has %d replayed-trace scenarios, want >= 2", traces)
	}
	report := catalogReport(t)
	rank := catalogRanks(report)
	for _, m := range []string{"apriori", "fpgrowth", "fda"} {
		if rank[m] == nil {
			t.Fatalf("matrix has no scored %s cells (miners: %v)", m, report.Miners)
		}
	}
	for _, pm := range report.PerMiner {
		sum := 0
		for scenario, r := range rank[pm.Miner] {
			if r == 0 {
				t.Errorf("%s/%s: true cause never attributed", pm.Miner, scenario)
			}
			sum += r
		}
		meanRank := float64(sum) / float64(len(rank[pm.Miner]))
		t.Logf("%s: %d scenarios, mean precision %.3f recall %.3f rank %.2f",
			pm.Miner, len(rank[pm.Miner]), pm.MeanPrecision, pm.MeanRecall, meanRank)
		if pm.MeanPrecision < 0.8 {
			t.Errorf("%s: mean precision %.3f < 0.8", pm.Miner, pm.MeanPrecision)
		}
		if pm.MeanRecall < 0.9 {
			t.Errorf("%s: mean recall %.3f < 0.9", pm.Miner, pm.MeanRecall)
		}
		if meanRank > 3 {
			t.Errorf("%s: mean true-cause rank %.2f > 3", pm.Miner, meanRank)
		}
	}
	for scenario, fp := range rank["fpgrowth"] {
		if fda := rank["fda"][scenario]; fp > 0 && (fda == 0 || fda > fp) {
			t.Errorf("%s: fda rank %d degrades fpgrowth rank %d", scenario, fda, fp)
		}
	}
}

// TestRunMinerComparison compares apriori and fpgrowth head-to-head over
// the catalog run. Because registered miners are pinned to identical
// canonical mining output, they must agree scenario by scenario —
// usefulness, additional evidence, itemset counts and truth scores.
func TestRunMinerComparison(t *testing.T) {
	report := catalogReport(t)
	apriori := map[string]ComboScore{}
	useful := 0
	for _, c := range report.Combos {
		if c.Miner == "apriori" {
			apriori[c.Scenario] = c
			if c.Useful {
				useful++
			}
		}
	}
	if useful == 0 {
		t.Fatal("no useful apriori extractions in the catalog run")
	}
	compared := 0
	for _, c := range report.Combos {
		if c.Miner != "fpgrowth" {
			continue
		}
		a, ok := apriori[c.Scenario]
		if !ok {
			t.Errorf("%s: fpgrowth cell without an apriori cell", c.Scenario)
			continue
		}
		compared++
		if a.Useful != c.Useful || a.Additional != c.Additional || a.Itemsets != c.Itemsets ||
			a.Precision != c.Precision || a.Recall != c.Recall || a.RankOfTrueCause != c.RankOfTrueCause {
			t.Errorf("%s: apriori %+v vs fpgrowth %+v", c.Scenario, a, c)
		}
	}
	if compared != len(apriori) {
		t.Fatalf("compared %d scenarios, apriori ran %d", compared, len(apriori))
	}
}

// TestRunMinerComparisonDefaultsToRegistry: a matrix given no miner list
// runs every registered miner on every scenario.
func TestRunMinerComparisonDefaultsToRegistry(t *testing.T) {
	report := catalogReport(t)
	want := miner.Names()
	if len(want) < 3 {
		t.Fatalf("registry holds %v, want the built-in apriori, fpgrowth and fda", want)
	}
	if strings.Join(report.Miners, ",") != strings.Join(want, ",") {
		t.Fatalf("matrix miners %v, want every registered miner %v", report.Miners, want)
	}
	cells := map[string]int{}
	for _, c := range report.Combos {
		cells[c.Miner]++
	}
	for _, m := range want {
		if cells[m] != len(report.Scenarios) {
			t.Errorf("miner %s ran %d cells, want one per scenario (%d)", m, cells[m], len(report.Scenarios))
		}
	}
}

// TestMatrixDeterminism pins the determinism contract: two runs with the
// same config produce identical reports (modulo wall-clock), for every
// ranking mode — the ranking score must not introduce map-order or
// float-tie nondeterminism.
func TestMatrixDeterminism(t *testing.T) {
	for _, ranking := range []string{"", "lift", "weighted"} {
		cfg := PipelineConfig{
			Scenarios: []string{"icmp-flood", "spam-campaign"},
			Detectors: []string{SynthesizedSource},
			Miners:    nil, // every registered miner
			Seed:      3,
			Ranking:   ranking,
		}
		run := func(dir string) string {
			c := cfg
			c.WorkDir = dir
			rep, err := RunMatrix(c)
			if err != nil {
				t.Fatal(err)
			}
			rep.WallMS = 0
			rep.Totals.WallMS = 0
			for i := range rep.PerMiner {
				rep.PerMiner[i].WallMS = 0
			}
			for i := range rep.Combos {
				rep.Combos[i].WallMS = 0
			}
			buf, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			return string(buf)
		}
		a, b := run(t.TempDir()), run(t.TempDir())
		if a != b {
			t.Errorf("ranking %q: matrix runs differ:\n%s\n%s", ranking, a, b)
		}
	}
}

// TestMatrixUnknownScenario pins the error path: unknown names must list
// the catalog instead of failing deep in generation.
func TestMatrixUnknownScenario(t *testing.T) {
	_, err := RunMatrix(PipelineConfig{Scenarios: []string{"no-such"}, WorkDir: t.TempDir()})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Fatalf("want unknown-scenario error, got %v", err)
	}
}

// TestMatrixMarkdown sanity-checks the human-readable rendering.
func TestMatrixMarkdown(t *testing.T) {
	rep := &MatrixReport{
		Version: MatrixReportVersion, Seed: 1,
		Scenarios: []string{"portscan"}, Detectors: []string{SynthesizedSource},
		Miners: []string{"apriori"},
		Combos: []ComboScore{{
			Scenario: "portscan", Kind: "port scan", Detector: SynthesizedSource,
			AlarmSource: SynthesizedSource, Miner: "apriori", Itemsets: 2,
			Useful: true, Precision: 1, Recall: 1, RankOfTrueCause: 1, Pass: true,
		}},
		PerMiner: []MinerTotals{{Miner: "apriori"}},
	}
	md := rep.Markdown()
	for _, want := range []string{"# Evaluation matrix", "## Totals", "## Per miner", "| portscan |", "apriori"} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown missing %q:\n%s", want, md)
		}
	}
}
