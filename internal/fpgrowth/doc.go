// Package fpgrowth implements the FP-Growth frequent itemset mining
// algorithm (Han, Pei & Yin, SIGMOD'00) over the same flow-transaction
// datasets as package apriori: one engine registered under two miner
// names, and a miner.Preparer, so the self-tuning loop prepares each
// dimension once and mines every round from it.
//
// Prepare does the support-independent work: item supports, the fda
// significance cut, a dense rank per kept item (support descending, then
// item ascending) and each row as its rank path — the ranks of its kept
// items ascending, at most five int32s, with its weight — sorted, equal
// paths merged. MineAt(minSup) works on ranks only: the items frequent at
// minSup are the first k ranks, so every path's frequent items are a
// prefix of it, and the round builds an arena tree (int32 parent and
// next-item links, a header table indexed by rank) from those prefixes.
// Its top level fans out over a bounded worker pool; each worker counts a
// conditional base before building its tree and inserts only the items
// frequent in it. Mine is Prepare followed by MineAt.
//
// "fpgrowth" is the plain algorithm. The paper's system uses Apriori;
// FP-Growth is the natural baseline any FIM-based system would be
// compared against (experiment E8 in DESIGN.md) and an independent
// implementation for cross-checking mining correctness: both miners must
// produce identical itemset/support results on every dataset, a property
// the test suites of both packages and the cross-miner battery in
// package miner enforce.
//
// "fda" is the same engine after Facebook's "Fast Dimensional Analysis"
// (Lin et al.), which describes its miner as FP-growth plus two cuts:
// when miner.Options.Prefilter is set, items whose weight is
// statistically indistinguishable from a uniform spread over their
// feature are dropped before ranking (significantItems), and
// mined itemsets whose lift falls below miner.MinLift are dropped after
// (liftCut). The output is then a subset of the canonical result with
// identical supports and the same order; with Prefilter unset "fda" is
// the "fpgrowth" code path exactly. Only the registry name selects the
// cuts — under "fpgrowth" the Prefilter field is ignored.
package fpgrowth
