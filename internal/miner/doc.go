// Package miner defines the pluggable frequent-itemset-mining seam of the
// extraction engine: a Miner interface over flow-transaction datasets and
// a named factory registry mirroring internal/detector.
//
// The paper's system mines with Apriori; FP-Growth (Han, Pei & Yin,
// SIGMOD'00) is the natural alternative on dense transaction databases.
// The built-ins self-register from their packages' init functions:
// "apriori", and one FP-growth engine under the names "fpgrowth" and
// "fda" (the latter honours Options.Prefilter). With Prefilter off all
// three are pinned — by property tests over random weighted datasets —
// to emit byte-identical canonical results, so the extraction engine can
// swap miners without changing a single reported itemset; with it on,
// "fda" returns a subset of them. External miners plug in through
// Register and become selectable everywhere a miner name is accepted:
// core.Options, rootcause.WithMiner, the -miner CLI flags, and rcad's
// HTTP API.
//
// A miner may also implement Preparer, splitting its work into a Prepare
// step run once per dataset and dimension and a MineAt step run per
// support; every built-in miner does. Prepare is the one entry point for
// callers mining at several supports: it returns the miner's own
// Prepared, or for a plain Miner (one registered from outside with Mine
// alone) an adapter that calls Mine at each support.
package miner
