// Package core implements the paper's primary contribution: the extended
// Apriori anomaly-extraction engine that turns a detector alarm plus a
// flow archive into a short, ranked list of itemsets summarizing the
// anomalous flows.
//
// Relative to classic Apriori over flow transactions (Brauckhoff et al.,
// IMC'09), the engine adds the two extensions this paper describes:
//
//  1. Dual support. Itemset support is computed in flows AND in packets.
//     Anomalies "not characterized by a significant volume of flows" —
//     the point-to-point UDP floods frequent in GEANT — are invisible to
//     flow support but dominate packet support, so the engine mines both
//     dimensions and merges the results.
//
//  2. Self-tuning configuration. The minimum support starts at a fraction
//     of the candidate traffic and halves itself until the number of
//     maximal itemsets lands in an operator-friendly band, so the
//     extraction works across anomalies of very different intensities
//     without manual parameter fiddling.
//
// The engine also applies the workflow around the miner that the paper's
// system implements: meta-data pre-filtering of candidate flows (with
// fallback to the full interval), maximal-itemset reduction,
// baseline-popularity false-positive suppression, and itemset→filter
// drill-down so an operator can inspect the raw flows behind any row.
//
// The miner itself is pluggable (Options.Miner selects a name from the
// internal/miner registry; "apriori" is the default, "fpgrowth" the
// built-in alternative emitting identical canonical results, and "fda"
// the same FP-growth engine with its significance pre-filter on), the
// store's record iterator streams candidate flows into the value columns
// of an itemset.Builder (no record slice, no per-record map), which folds
// them once at SupportFloor (Builder.Project), so every tuning round
// mines folded rows. Each dimension is prepared for mining once
// (miner.Prepare; apriori numbers the kept items and turns the rows into
// id tuples there, the FP-growth engine ranks and path-sorts them) and
// mined every round, and support counting plus the coverage
// loop fan out over the dataset's sharded worker pool.
package core
