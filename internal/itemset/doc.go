// Package itemset models flows as transactions for frequent itemset mining,
// the representation at the heart of the paper's technique: every flow
// becomes a transaction of five (feature, value) items — srcIP, dstIP,
// srcPort, dstPort, proto — and an anomaly's flows, sharing a common
// root cause, share items.
//
// Items pack a feature tag and a 32-bit value into one uint64, so itemsets
// are tiny integer slices, transactions are fixed-size arrays, and support
// counting never allocates. Identical rows aggregate into one weighted
// transaction carrying both support dimensions the extended Apriori mines:
// flow count and packet count. The Builder buffers records as value
// columns and folds them once, at a support floor, where values
// below the floor become the slot's absent marker.
package itemset
