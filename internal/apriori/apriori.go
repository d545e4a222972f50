package apriori

import (
	"context"
	"sort"

	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/miner"
)

// Options is the shared miner configuration (see miner.Options).
type Options = miner.Options

// ErrZeroSupport is returned when Options.MinSupport is 0, which would
// declare every possible itemset frequent.
var ErrZeroSupport = miner.ErrZeroSupport

// Miner is the registry adapter: package-level Mine behind the
// miner.Miner interface. Registered as "apriori" (the default).
type Miner struct{}

// Mine implements miner.Miner.
func (Miner) Mine(ctx context.Context, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error) {
	return Mine(ctx, ds, opts)
}

func init() {
	miner.MustRegister("apriori", func() miner.Miner { return Miner{} })
}

// Mine returns all itemsets with support >= opts.MinSupport in the chosen
// dimension, canonically sorted (descending support, then descending
// length). The empty itemset is never reported. Cancelling ctx aborts
// mining between dataset scan strides and returns ctx.Err().
func Mine(ctx context.Context, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	var result []itemset.Frequent

	// Level 1: count every item with one scan.
	counts := make(map[itemset.Item]uint64)
	for i := 0; i < ds.Len(); i++ {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tx := ds.Tx(i)
		w := tx.Weight(opts.ByPackets)
		for _, it := range tx.Items {
			if !it.Absent() {
				counts[it] += w
			}
		}
	}
	frequent := make(map[itemset.Item]bool, len(counts))
	var level []itemset.Set // L_k, each sorted
	for it, c := range counts {
		if c >= opts.MinSupport {
			frequent[it] = true
			result = append(result, itemset.Frequent{Items: itemset.Set{it}, Support: c})
			level = append(level, itemset.Set{it})
		}
	}
	sortSets(level)

	// Levels 2..flow.NumFeatures (a transaction holds one item per
	// feature): generate candidates from the previous level, count with
	// one scan, keep the frequent ones.
	for k := 2; k <= flow.NumFeatures && len(level) >= 2; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		candidates := generateCandidates(level, k)
		if len(candidates) == 0 {
			break
		}
		supports, err := countCandidates(ctx, ds, candidates, frequent, k, opts.ByPackets)
		if err != nil {
			return nil, err
		}
		var next []itemset.Set
		for key, sup := range supports {
			if sup >= opts.MinSupport {
				set := candidates[key]
				result = append(result, itemset.Frequent{Items: set, Support: sup})
				next = append(next, set)
			}
		}
		sortSets(next)
		level = next
	}

	itemset.SortFrequent(result)
	return result, nil
}

// ctxCheckStride is how many transactions a dataset scan processes between
// context checks.
const ctxCheckStride = 1024

// sortSets orders itemsets lexicographically so candidate generation can
// join sets sharing a (k-2)-prefix by scanning neighbours.
func sortSets(sets []itemset.Set) {
	sort.Slice(sets, func(i, j int) bool {
		a, b := sets[i], sets[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// setKey is an itemset as a comparable map key: its items in order,
// zero-padded. Every map holds sets of one length, so the padding is
// unambiguous, and a key costs no allocation in the counting scan.
type setKey [flow.NumFeatures]itemset.Item

func keyOf(s itemset.Set) (k setKey) {
	copy(k[:], s)
	return k
}

// generateCandidates produces the level-k candidate map (keyed by keyOf)
// from the lexicographically sorted frequent (k-1)-sets, using the classic
// prefix join followed by the Apriori prune, plus the domain prune: items
// of the same traffic feature never combine.
func generateCandidates(level []itemset.Set, k int) map[setKey]itemset.Set {
	candidates := make(map[setKey]itemset.Set)
	// Index of (k-1)-set keys for the prune step.
	prev := make(map[setKey]bool, len(level))
	for _, s := range level {
		prev[keyOf(s)] = true
	}
	for i := 0; i < len(level); i++ {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i], level[j]
			if !samePrefix(a, b) {
				// Sorted order: once prefixes diverge, no later j matches.
				break
			}
			last1, last2 := a[len(a)-1], b[len(b)-1]
			if last1.Feature() == last2.Feature() {
				// A flow has exactly one value per feature: a candidate
				// holding two srcIPs can never be contained in any
				// transaction. Skip, but keep scanning j (later sets can
				// carry other features).
				continue
			}
			cand := a.Union(itemset.Set{last2})
			if len(cand) != k {
				continue
			}
			if !allSubsetsFrequent(cand, prev) {
				continue
			}
			candidates[keyOf(cand)] = cand
		}
	}
	return candidates
}

// samePrefix reports whether two equal-length sorted sets agree on all but
// the last item.
func samePrefix(a, b itemset.Set) bool {
	for k := 0; k < len(a)-1; k++ {
		if a[k] != b[k] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent applies the Apriori property: every (k-1)-subset of a
// candidate must itself be frequent.
func allSubsetsFrequent(cand itemset.Set, prev map[setKey]bool) bool {
	sub := make(itemset.Set, len(cand)-1)
	for drop := range cand {
		sub = sub[:0]
		for i, it := range cand {
			if i != drop {
				sub = append(sub, it)
			}
		}
		if !prev[keyOf(sub)] {
			return false
		}
	}
	return true
}

// countCandidates scans the dataset once, enumerating each transaction's
// k-subsets over frequent items and accumulating support for those that
// are candidates.
func countCandidates(ctx context.Context, ds *itemset.Dataset, candidates map[setKey]itemset.Set, frequentItem map[itemset.Item]bool, k int, byPackets bool) (map[setKey]uint64, error) {
	supports := make(map[setKey]uint64, len(candidates))
	var buf itemset.Set      // scratch subset
	var items []itemset.Item // frequent items of the current transaction
	for i := 0; i < ds.Len(); i++ {
		if i%ctxCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tx := ds.Tx(i)
		items = items[:0]
		for _, it := range tx.Items {
			if frequentItem[it] {
				items = append(items, it)
			}
		}
		if len(items) < k {
			continue
		}
		w := tx.Weight(byPackets)
		enumerateSubsets(items, k, &buf, func(sub itemset.Set) {
			key := keyOf(sub)
			if _, ok := candidates[key]; ok {
				supports[key] += w
			}
		})
	}
	return supports, nil
}

// enumerateSubsets calls fn for every k-subset of items (which is sorted),
// reusing buf as scratch. With at most flow.NumFeatures items the subset
// count is bounded by C(5,k) <= 10.
func enumerateSubsets(items []itemset.Item, k int, buf *itemset.Set, fn func(itemset.Set)) {
	*buf = (*buf)[:0]
	var rec func(start int)
	rec = func(start int) {
		if len(*buf) == k {
			fn(*buf)
			return
		}
		// Not enough items left to fill the subset?
		need := k - len(*buf)
		for i := start; i+need <= len(items)+0; i++ {
			if len(items)-i < need {
				break
			}
			*buf = append(*buf, items[i])
			rec(i + 1)
			*buf = (*buf)[:len(*buf)-1]
		}
	}
	rec(0)
}
