// Package eval is the experiment harness: it scores extraction results
// against the generator's ground-truth annotations and runs the paper's
// evaluation suites (the 40-alarm GEANT evaluation with 1/100 sampling,
// the 31-anomaly SWITCH evaluation with the histogram/KL detector, the
// Table 1 scenario, the flow-vs-packet support sweep and the self-tuning
// ablation). TestPaperBands gates each reproduced statistic on the
// paper's band; cmd/benchreport prints paper-vs-measured.
//
// On top of the paper's suites, RunMatrix drives the reproducible
// evaluation pipeline: every scenario-catalog entry (internal/gen) is
// generated once, alarm-sourced per configured detector (with
// ground-truth synthesis as the SynthesizedSource pseudo-detector and as
// fallback), and extracted per registered miner — all through the public
// rootcause API, on the job manager (Submit → Wait). Results are scored with
// ScoreTruth (itemset precision, anomaly recall, rank of the true cause)
// and aggregated into a MatrixReport, the payload of BENCH_eval.json
// that cmd/benchreport writes and CI tracks PR-over-PR (see
// docs/evaluation.md and DESIGN.md §7).
package eval
