package eval

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/gen"
)

// TestMatrixAprioriFloors pins precision/recall floors for the built-in
// apriori path over the whole scenario catalog with synthesized
// ground-truth alarms: every non-expect-fail scenario must extract a
// useful, truth-attributed itemset list, the true cause must rank in the
// top 3, and the aggregate precision/recall must hold their floors. This
// is the quality trajectory BENCH_eval.json tracks across PRs.
func TestMatrixAprioriFloors(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run in -short mode")
	}
	report, err := RunMatrix(PipelineConfig{
		Detectors: []string{SynthesizedSource},
		Miners:    []string{"apriori"},
		Seed:      7,
		WorkDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Scenarios) != len(gen.Names()) {
		t.Fatalf("matrix covered %d scenarios, want the whole catalog (%d)",
			len(report.Scenarios), len(gen.Names()))
	}
	for _, c := range report.Combos {
		t.Logf("%-18s useful=%-5v itemsets=%-3d precision=%.2f recall=%.2f rank=%d pass=%v err=%q",
			c.Scenario, c.Useful, c.Itemsets, c.Precision, c.Recall, c.RankOfTrueCause, c.Pass, c.Error)
		if c.Error != "" {
			t.Errorf("%s: extraction error: %s", c.Scenario, c.Error)
			continue
		}
		if c.ExpectFail {
			if c.Useful {
				t.Errorf("%s: expect-fail scenario produced useful itemsets", c.Scenario)
			}
			continue
		}
		if !c.Pass {
			t.Errorf("%s: did not pass (useful=%v rank=%d)", c.Scenario, c.Useful, c.RankOfTrueCause)
		}
		if c.RankOfTrueCause < 1 || c.RankOfTrueCause > 3 {
			t.Errorf("%s: true cause ranked %d, want top 3", c.Scenario, c.RankOfTrueCause)
		}
		// The self-tuning engine deliberately reports a minimum-length
		// ranked list, so single-anomaly scenarios carry background tail
		// itemsets: the per-scenario floor is low, the aggregate floors
		// below carry the trajectory.
		if c.Precision < 0.3 {
			t.Errorf("%s: precision %.2f below per-scenario floor 0.3", c.Scenario, c.Precision)
		}
	}
	if report.Totals.MeanPrecision < 0.8 {
		t.Errorf("mean precision %.3f below floor 0.8", report.Totals.MeanPrecision)
	}
	if report.Totals.MeanRecall < 0.9 {
		t.Errorf("mean recall %.3f below floor 0.9", report.Totals.MeanRecall)
	}
	if report.Totals.MeanReciprocalRank < 0.9 {
		t.Errorf("MRR %.3f below floor 0.9", report.Totals.MeanReciprocalRank)
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
