package eval

import (
	"fmt"
	"strings"
)

// Markdown renders the matrix report as the human-readable companion of
// BENCH_eval.json: run configuration, aggregate scores, a per-miner
// comparison and the full per-cell table. docs/evaluation.md explains how
// to read it.
func (r *MatrixReport) Markdown() string {
	var b strings.Builder
	b.WriteString("# Evaluation matrix\n\n")
	fmt.Fprintf(&b, "Seed %d · sample rate %s · extraction via job manager · %d scenarios × %d detectors × %d miners = %d cells · %.0f ms total\n\n",
		r.Seed, sampleRateLabel(r.SampleRate),
		len(r.Scenarios), len(r.Detectors), len(r.Miners), len(r.Combos), r.WallMS)

	b.WriteString("## Totals\n\n")
	b.WriteString("| cells | pass | mean precision | mean recall | MRR | peak itemsets | extraction ms |\n")
	b.WriteString("|---:|---:|---:|---:|---:|---:|---:|\n")
	writeTotalsRow(&b, "", r.Totals)

	b.WriteString("\n## Per miner\n\n")
	b.WriteString("| miner | cells | pass | mean precision | mean recall | MRR | peak itemsets | extraction ms |\n")
	b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|\n")
	for _, m := range r.PerMiner {
		writeTotalsRow(&b, m.Miner, m.MatrixTotals)
	}

	b.WriteString("\n## Cells\n\n")
	b.WriteString("Rank is the 1-based position of the true cause in the ranked itemset list (0 = missed; expect-fail scenarios pass by staying non-useful).\n\n")
	b.WriteString("| scenario | detector | alarm source | miner | itemsets | useful | precision | recall | rank | pass | ms |\n")
	b.WriteString("|---|---|---|---|---:|:---:|---:|---:|---:|:---:|---:|\n")
	for _, c := range r.Combos {
		name := c.Scenario
		if c.ExpectFail {
			name += " (expect-fail)"
		}
		status := mark(c.Pass)
		if c.Error != "" {
			status = "error"
		}
		fmt.Fprintf(&b, "| %s | %s | %s | %s | %d | %s | %.2f | %.2f | %d | %s | %.0f |\n",
			name, c.Detector, c.AlarmSource, c.Miner, c.Itemsets, mark(c.Useful),
			c.Precision, c.Recall, c.RankOfTrueCause, status, c.WallMS)
	}

	if len(r.Incidents) > 0 {
		b.WriteString("\n## Incident mode\n\n")
		b.WriteString("Per scenario: a synthesized alarm storm is deduplicated and correlated\n")
		b.WriteString("into incidents, each extracted through ONE job, scored jointly against\n")
		b.WriteString("the full ground truth. Worst rank is the deepest rank any recovered\n")
		b.WriteString("cause needed (0 = a cause was missed). ")
		b.WriteString(incidentTotalsLine(r.Incidents))
		b.WriteString("\n\n")
		b.WriteString("| scenario | alarms | kept | incidents | reduction | jobs | precision | recall | worst rank | chain | pass | ms |\n")
		b.WriteString("|---|---:|---:|---:|---:|---:|---:|---:|---:|:---:|:---:|---:|\n")
		for _, s := range r.Incidents {
			name := s.Scenario
			if s.Composite {
				name += " (composite)"
			}
			if s.ExpectFail {
				name += " (expect-fail)"
			}
			status := mark(s.Pass)
			if s.Error != "" {
				status = "error"
			}
			chain := "-"
			if s.Composite {
				chain = mark(s.ChainOK)
			}
			fmt.Fprintf(&b, "| %s | %d | %d | %d | %.1fx | %d | %.2f | %.2f | %d | %s | %s | %.0f |\n",
				name, s.AlarmsIn, s.AlarmsKept, s.Incidents, s.Reduction, s.Jobs,
				s.Precision, s.Recall, s.WorstRank, chain, status, s.WallMS)
		}
	}
	return b.String()
}

func writeTotalsRow(b *strings.Builder, label string, t MatrixTotals) {
	if label != "" {
		fmt.Fprintf(b, "| %s ", label)
	}
	fmt.Fprintf(b, "| %d | %d | %.3f | %.3f | %.3f | %d | %.0f |\n",
		t.Combos, t.Pass, t.MeanPrecision, t.MeanRecall, t.MeanReciprocalRank,
		t.PeakItemsets, t.WallMS)
}

func sampleRateLabel(rate uint32) string {
	if rate <= 1 {
		return "unsampled"
	}
	return fmt.Sprintf("1/%d", rate)
}

func mark(ok bool) string {
	if ok {
		return "yes"
	}
	return "no"
}
