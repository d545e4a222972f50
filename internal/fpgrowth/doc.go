// Package fpgrowth implements the FP-Growth frequent itemset mining
// algorithm (Han, Pei & Yin, SIGMOD'00) over the same flow-transaction
// datasets as package apriori: one engine — one FP-tree, one support pass
// + item order + tree build, one top level fanned out over a bounded
// worker pool — registered under two miner names.
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
// feature are dropped before the tree is built (significantItems), and
// mined itemsets whose lift falls below miner.MinLift are dropped after
// (liftCut). The output is then a subset of the canonical result with
// identical supports and the same order; with Prefilter unset "fda" is
// the "fpgrowth" code path exactly. Only the registry name selects the
// cuts — under "fpgrowth" the Prefilter field is ignored.
package fpgrowth
