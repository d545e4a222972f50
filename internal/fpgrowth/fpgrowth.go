package fpgrowth

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/miner"
)

// Options is the shared miner configuration (see miner.Options), so the
// built-in miners are interchangeable.
type Options = miner.Options

// Miner is the FP-growth engine behind both registry names. The zero value
// is "fpgrowth"; the "fda" registration sets fda, which makes the engine
// honour Options.Prefilter (the significance pre-filter before the tree is
// built and the lift cut after mining). The registry name is the only way
// to reach the fda half from outside the package.
type Miner struct{ fda bool }

func init() {
	miner.MustRegister("fpgrowth", func() miner.Miner { return Miner{} })
	miner.MustRegister("fda", func() miner.Miner { return Miner{fda: true} })
}

// maxWorkers bounds the top-level mining fan-out; alarm datasets carry at
// most a few hundred header items, so more workers only add scheduling
// overhead.
const maxWorkers = 8

// node is one FP-tree node.
type node struct {
	item     itemset.Item
	count    uint64
	parent   *node
	children map[itemset.Item]*node
	next     *node // header-table chain of nodes holding the same item
}

// tree is an FP-tree with its header table.
type tree struct {
	root   *node
	heads  map[itemset.Item]*node  // first node per item
	counts map[itemset.Item]uint64 // total support per item
}

func newTree() *tree {
	return &tree{
		root:   &node{children: make(map[itemset.Item]*node)},
		heads:  make(map[itemset.Item]*node),
		counts: make(map[itemset.Item]uint64),
	}
}

// insert adds one (sorted-by-order) item path with the given weight.
func (t *tree) insert(items []itemset.Item, weight uint64) {
	cur := t.root
	for _, it := range items {
		child, ok := cur.children[it]
		if !ok {
			child = &node{item: it, parent: cur, children: make(map[itemset.Item]*node)}
			cur.children[it] = child
			child.next = t.heads[it]
			t.heads[it] = child
		}
		child.count += weight
		t.counts[it] += weight
		cur = child
	}
}

// frequentItems lists t's header items with support >= minSupport in item
// order: the deterministic iteration order of every recursion level.
func (t *tree) frequentItems(minSupport uint64) []itemset.Item {
	items := make([]itemset.Item, 0, len(t.heads))
	for it := range t.heads {
		if t.counts[it] >= minSupport {
			items = append(items, it)
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	return items
}

// Mine returns all itemsets with support >= opts.MinSupport in the chosen
// dimension, canonically sorted. Under the name "fpgrowth", and under
// "fda" without opts.Prefilter, the result is element-for-element equal to
// apriori.Mine on the same input; under "fda" with opts.Prefilter the
// significance pre-filter and the lift cut reduce it to a subset with
// equal supports in the same order. Cancelling ctx aborts the dataset
// passes within a stride and mining between conditional-tree expansions,
// returning ctx.Err().
func (m Miner) Mine(ctx context.Context, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	maxLen := opts.MaxLen
	if maxLen <= 0 || maxLen > flow.NumFeatures {
		maxLen = flow.NumFeatures
	}
	prefilter := m.fda && opts.Prefilter

	// Pass 1: global item supports in the mining dimension.
	support := make(map[itemset.Item]uint64)
	for i := 0; i < ds.Len(); i++ {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tx := ds.Tx(i)
		w := tx.Weight(opts.ByPackets)
		for _, it := range tx.Items {
			if !it.Absent() {
				support[it] += w
			}
		}
	}
	total := ds.Total(opts.ByPackets)

	// Global item order over the frequent items (the pre-filter's survivors
	// when it runs): descending support, ties by item value, so that every
	// transaction inserts items in one canonical order and a filtered run
	// mines a sub-tree of the unfiltered one.
	kept := support
	if prefilter {
		kept = significantItems(support, ds.Dropped, total)
	}
	order := make(map[itemset.Item]int, len(kept))
	{
		items := make([]itemset.Item, 0, len(kept))
		for it, c := range kept {
			if c >= opts.MinSupport {
				items = append(items, it)
			}
		}
		sort.Slice(items, func(i, j int) bool {
			if support[items[i]] != support[items[j]] {
				return support[items[i]] > support[items[j]]
			}
			return items[i] < items[j]
		})
		for rank, it := range items {
			order[it] = rank
		}
	}

	// Pass 2: build the tree over the ordered items only. Each row's
	// ranks are read once and its at most NumFeatures items
	// insertion-sorted in place.
	t := newTree()
	var path [flow.NumFeatures]itemset.Item
	var ranks [flow.NumFeatures]int
	for i := 0; i < ds.Len(); i++ {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tx := ds.Tx(i)
		n := 0
		for _, it := range tx.Items {
			r, ok := order[it]
			if !ok {
				continue
			}
			j := n
			for ; j > 0 && ranks[j-1] > r; j-- {
				ranks[j], path[j] = ranks[j-1], path[j-1]
			}
			ranks[j], path[j] = r, it
			n++
		}
		if n == 0 {
			continue
		}
		t.insert(path[:n], tx.Weight(opts.ByPackets))
	}

	result, err := mineTop(ctx, t, opts.MinSupport, maxLen)
	if err != nil {
		return nil, err
	}
	if prefilter {
		result = liftCut(result, support, total)
	}
	itemset.SortFrequent(result)
	return result, nil
}

// significantItems applies the per-item pre-filter. The null model
// spreads a feature's weight uniformly over its k observed values (share
// p0 = 1/k); an item survives when its observed weight w clears the
// one-sided z-test against the Binomial(total, p0) null:
//
//	z = (w − total·p0) / sqrt(total·p0·(1−p0)) >= miner.Significance
//
// k counts the values a projected dataset folded away (dropped) as well
// as those in support, so projection never changes the null. Features
// with a single observed value carry nothing to test and always survive,
// as does everything when the dataset has no weight at all.
func significantItems(support map[itemset.Item]uint64, dropped func(flow.Feature) int, total uint64) map[itemset.Item]uint64 {
	if total == 0 {
		return support
	}
	valuesPerFeature := make(map[flow.Feature]int)
	for it := range support {
		valuesPerFeature[it.Feature()]++
	}
	kept := make(map[itemset.Item]uint64, len(support))
	for it, w := range support {
		k := valuesPerFeature[it.Feature()] + dropped(it.Feature())
		if k <= 1 {
			kept[it] = w
			continue
		}
		p0 := 1 / float64(k)
		mean := float64(total) * p0
		sd := math.Sqrt(float64(total) * p0 * (1 - p0))
		if (float64(w)-mean)/sd >= miner.Significance {
			kept[it] = w
		}
	}
	return kept
}

// liftCut drops mined itemsets whose lift — observed support share over
// the independence expectation of their items' shares — falls below
// miner.MinLift. A single item's lift is exactly 1 (its observation is
// its own expectation), so level-1 sets always survive.
func liftCut(sets []itemset.Frequent, support map[itemset.Item]uint64, total uint64) []itemset.Frequent {
	if total == 0 {
		return sets
	}
	out := sets[:0]
	for _, fr := range sets {
		obs := float64(fr.Support) / float64(total)
		expect := 1.0
		for _, it := range fr.Items {
			// Item support >= set support >= MinSupport >= 1, so the
			// expectation is always positive.
			expect *= float64(support[it]) / float64(total)
		}
		if obs/expect >= miner.MinLift {
			out = append(out, fr)
		}
	}
	return out
}

// mineTop is the top level of the recursion, fanned out over a bounded
// worker pool: each frequent header item is mined independently (the tree
// is read-only by then) into its own slice, and the slices concatenate in
// header order, so the output does not depend on the worker count.
func mineTop(ctx context.Context, t *tree, minSupport uint64, maxLen int) ([]itemset.Frequent, error) {
	items := t.frequentItems(minSupport)
	workers := min(runtime.GOMAXPROCS(0), maxWorkers, len(items))
	parts := make([][]itemset.Frequent, len(items))
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx := int(next.Add(1)) - 1
				if idx >= len(items) {
					return
				}
				if errs[w] = ctx.Err(); errs[w] != nil {
					return
				}
				if errs[w] = mineItem(ctx, t, nil, items[idx], minSupport, maxLen, &parts[idx]); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	var result []itemset.Frequent
	for _, part := range parts {
		result = append(result, part...)
	}
	return result, nil
}

// mineTree recursively mines t: every frequent item of t extended with the
// current suffix, then that item's conditional tree.
func mineTree(ctx context.Context, t *tree, suffix itemset.Set, minSupport uint64, maxLen int, out *[]itemset.Frequent) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, it := range t.frequentItems(minSupport) {
		if err := mineItem(ctx, t, suffix, it, minSupport, maxLen, out); err != nil {
			return err
		}
	}
	return nil
}

// mineItem emits suffix ∪ {it} and, while the set is shorter than maxLen,
// everything mined from it's conditional tree.
func mineItem(ctx context.Context, t *tree, suffix itemset.Set, it itemset.Item, minSupport uint64, maxLen int, out *[]itemset.Frequent) error {
	set := suffix.Union(itemset.Set{it})
	*out = append(*out, itemset.Frequent{Items: set, Support: t.counts[it]})
	if len(set) >= maxLen {
		return nil
	}
	cond := conditionalTree(t, it)
	if len(cond.heads) == 0 {
		return nil
	}
	return mineTree(ctx, cond, set, minSupport, maxLen, out)
}

// conditionalTree builds the conditional FP-tree of item: the tree of
// prefix paths leading to nodes holding the item, weighted by those nodes'
// counts.
func conditionalTree(t *tree, it itemset.Item) *tree {
	cond := newTree()
	var prefix []itemset.Item
	for n := t.heads[it]; n != nil; n = n.next {
		prefix = prefix[:0]
		for p := n.parent; p != nil && p.parent != nil; p = p.parent {
			prefix = append(prefix, p.item)
		}
		if len(prefix) == 0 {
			continue
		}
		// prefix was collected leaf→root; reverse to root→leaf so the
		// conditional tree shares structure the same way.
		for i, j := 0, len(prefix)-1; i < j; i, j = i+1, j-1 {
			prefix[i], prefix[j] = prefix[j], prefix[i]
		}
		cond.insert(prefix, n.count)
	}
	return cond
}
