// Package eval is the experiment harness: it scores extraction results
// against the generator's ground-truth annotations and runs the paper's
// evaluation suites (the 40-alarm GEANT evaluation with 1/100 sampling,
// the 31-anomaly SWITCH evaluation with the histogram/KL detector, the
// Table 1 scenario, the flow-vs-packet support sweep and the self-tuning
// ablation) and the scenario-catalog evaluation matrix.
//
// Every scenario runs on one path, the one the server runs: it is
// generated into its own rootcause.System, its alarm is sourced (a
// registered detector's alarm on the anomaly bin, else the alarm
// synthesized from ground truth — the SynthesizedSource pseudo-detector),
// it is extracted on the job manager (Submit → Wait) and the ranked
// result is scored with ScoreTruth (itemset precision, anomaly recall,
// rank of the true cause) and ScoreResult (the paper's useful /
// additional flags) into a ComboScore.
//
// RunMatrix drives that path over every catalog entry (internal/gen) ×
// configured detector × registered miner and aggregates a MatrixReport,
// the payload of BENCH_eval.json that cmd/benchreport writes and CI
// tracks PR-over-PR (see docs/evaluation.md and DESIGN.md §7).
// PaperGEANT40 and PaperSWITCH31 run the paper's ScenarioSpec suites
// through it one cell per scenario; RunTable1 and the E5/E6 sweeps
// reuse its system builder and job-path extraction with per-call engine
// settings. The Paper* functions and
// RunTable1 are the one definition of each paper run: TestPaperBands
// gates them at seed 1, and cmd/benchreport prints them.
package eval
