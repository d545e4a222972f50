// Package apriori implements the Apriori frequent itemset mining algorithm
// (Agrawal & Srikant, VLDB'94) over flow-transaction datasets — the miner
// the paper builds its anomaly extraction on.
//
// The flow setting bounds the problem pleasantly: every transaction has
// exactly one item per traffic feature, so itemsets contain at most
// flow.NumFeatures items, no itemset holds two values of the same feature,
// and each level-k scan enumerates at most C(5, k) subsets per transaction.
// Candidate generation exploits both facts.
//
// Mining runs in id space: Prepare numbers the items at or above the floor
// in Item order (one map pass, the only map) and turns each row into its
// ascending ids; MineAt counts each level's flat sorted id tuples by binary
// search. No preparation is shared with FP-growth, so each checks the other.
package apriori
