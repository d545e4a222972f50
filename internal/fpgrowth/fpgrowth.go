package fpgrowth

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
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

// Mine returns all itemsets with support >= opts.MinSupport in the chosen
// dimension, canonically sorted: Prepare at opts.MinSupport, then MineAt
// it. Under the name "fpgrowth", and under "fda" without opts.Prefilter,
// the result is element-for-element equal to apriori.Mine on the same
// input; under "fda" with opts.Prefilter the significance pre-filter and
// the lift cut reduce it to a subset with equal supports in the same
// order. Cancelling ctx aborts the dataset passes within a stride and
// mining between conditional-tree expansions, returning ctx.Err().
func (m Miner) Mine(ctx context.Context, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error) {
	p, err := m.Prepare(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	return p.MineAt(ctx, opts.MinSupport)
}

// path is one row of a prepared dataset: the ranks of its kept items in
// ascending order (most frequent item first) and the row's weight.
type path struct {
	ranks [flow.NumFeatures]int32
	n     int32
	w     uint64
}

// comparePaths orders paths lexicographically by rank, a path before
// every longer path it is a prefix of. In that order the paths sharing
// any prefix are contiguous, so tree.build gives each prefix one node.
func comparePaths(a, b path) int {
	for i := range min(a.n, b.n) {
		if c := cmp.Compare(a.ranks[i], b.ranks[i]); c != 0 {
			return c
		}
	}
	return cmp.Compare(a.n, b.n)
}

// sortPaths returns paths in comparePaths order, by a stable counting
// sort per position from the last to the first (least significant digit
// first). The digit of a path at position j is its rank there plus one,
// or 0 past its end, so a path sorts before the longer paths it is a
// prefix of; width bounds the ranks. A position where every path has the
// same digit is skipped, so the passes run only where paths differ.
func sortPaths(paths []path, width int) []path {
	digit := func(pa *path, j int) int32 {
		if j < int(pa.n) {
			return pa.ranks[j] + 1
		}
		return 0
	}
	count := make([]int, width+1)
	var buf []path
	for j := flow.NumFeatures - 1; j >= 0 && len(paths) > 1; j-- {
		clear(count)
		for i := range paths {
			count[digit(&paths[i], j)]++
		}
		if count[digit(&paths[0], j)] == len(paths) {
			continue
		}
		pos := 0
		for d, c := range count {
			count[d], pos = pos, pos+c
		}
		if buf == nil {
			buf = make([]path, len(paths))
		}
		for i := range paths {
			d := digit(&paths[i], j)
			buf[count[d]] = paths[i]
			count[d]++
		}
		paths, buf = buf, paths
	}
	return paths
}

// prepared is a dataset reduced to what mining at any support >= floor
// needs: the kept items ranked by descending support (ties by item
// value), and each row as its rank path. It is read-only after Prepare,
// so MineAt calls and their workers share it.
type prepared struct {
	floor uint64
	items []itemset.Item // by rank
	sups  []uint64       // by rank, non-increasing
	paths []path         // sorted by comparePaths, distinct
	total uint64
	lift  map[itemset.Item]uint64 // kept items' supports when the lift cut runs, else nil
}

// Prepare does the support-independent work once for ds in the
// dimension of opts: item supports, the fda significance cut (when the
// engine is "fda" and opts.Prefilter is set), the dense rank of every
// item with support >= opts.MinSupport, and every row's rank path, the
// paths sorted with equal ones merged. Cancelling ctx aborts the dataset
// passes within a stride, returning ctx.Err().
func (m Miner) Prepare(ctx context.Context, ds *itemset.Dataset, opts Options) (miner.Prepared, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p := &prepared{floor: opts.MinSupport, total: ds.Total(opts.ByPackets)}
	prefilter := m.fda && opts.Prefilter

	// Pass 1: number the distinct items in first-seen order, sum their
	// supports, and keep each weighted row as the path of its item numbers.
	// Zero-weight rows only count toward the items seen (the fda null).
	ids := make(map[itemset.Item]int32)
	var items []itemset.Item
	var support []uint64
	p.paths = make([]path, 0, ds.Len())
	for i := range ds.Len() {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		tx := ds.Tx(i)
		pa := path{w: tx.Weight(opts.ByPackets)}
		for _, it := range tx.Items {
			if it.Absent() {
				continue
			}
			id, ok := ids[it]
			if !ok {
				id = int32(len(items))
				ids[it] = id
				items = append(items, it)
				support = append(support, 0)
			}
			support[id] += pa.w
			pa.ranks[pa.n] = id
			pa.n++
		}
		if pa.w > 0 && pa.n > 0 {
			p.paths = append(p.paths, pa)
		}
	}

	// Rank the frequent items (the pre-filter's survivors when it runs):
	// descending support, ties by item value, so that every row lists its
	// items in one canonical order and a filtered run mines a sub-tree of
	// the unfiltered one.
	var significant []bool
	if prefilter {
		significant = significantItems(items, support, ds.Dropped, p.total)
	}
	var byRank []int32
	for id, s := range support {
		if s >= opts.MinSupport && (significant == nil || significant[id]) {
			byRank = append(byRank, int32(id))
		}
	}
	slices.SortFunc(byRank, func(a, b int32) int {
		if c := cmp.Compare(support[b], support[a]); c != 0 {
			return c
		}
		return cmp.Compare(items[a], items[b])
	})
	rank := make([]int32, len(items))
	for id := range rank {
		rank[id] = -1
	}
	p.items = make([]itemset.Item, len(byRank))
	p.sups = make([]uint64, len(byRank))
	for r, id := range byRank {
		rank[id] = int32(r)
		p.items[r] = items[id]
		p.sups[r] = support[id]
	}
	if prefilter {
		p.lift = make(map[itemset.Item]uint64, len(p.items))
		for r, it := range p.items {
			p.lift[it] = p.sups[r]
		}
	}

	// Pass 2: each path's item numbers become the ranks of its kept
	// items, insertion-sorted in place; then the paths are sorted and
	// equal ones merged.
	kept := p.paths[:0]
	for i, pa := range p.paths {
		if i%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		nums, n := pa.ranks, pa.n
		pa.n = 0
		for _, id := range nums[:n] {
			r := rank[id]
			if r < 0 {
				continue
			}
			j := pa.n
			for ; j > 0 && pa.ranks[j-1] > r; j-- {
				pa.ranks[j] = pa.ranks[j-1]
			}
			pa.ranks[j] = r
			pa.n++
		}
		if pa.n > 0 {
			kept = append(kept, pa)
		}
	}
	kept = sortPaths(kept, len(p.items))
	merged := kept[:0]
	for _, pa := range kept {
		if last := len(merged) - 1; last >= 0 && comparePaths(merged[last], pa) == 0 {
			merged[last].w += pa.w
			continue
		}
		merged = append(merged, pa)
	}
	p.paths = merged
	return p, nil
}

// MineAt mines the prepared dataset at minSup (>= the floor). The items
// frequent at minSup are the first k ranks, so each path's frequent items
// are a prefix of it; the round builds its own tree from those prefixes
// and mines it. Safe for concurrent use.
func (p *prepared) MineAt(ctx context.Context, minSup uint64) ([]itemset.Frequent, error) {
	if err := miner.CheckFloor(minSup, p.floor); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	k := sort.Search(len(p.sups), func(r int) bool { return p.sups[r] < minSup })
	t := newTree(k)
	t.build(p.paths, int32(k))
	result, err := p.mineTop(ctx, t, minSup)
	if err != nil {
		return nil, err
	}
	if p.lift != nil {
		result = liftCut(result, p.lift, p.total)
	}
	itemset.SortFrequent(result)
	return result, nil
}

// significantItems applies the per-item pre-filter to the distinct items
// and their supports, reporting which survive. The null model spreads a
// feature's weight uniformly over its k observed values (share p0 = 1/k);
// an item survives when its observed weight w clears the one-sided
// z-test against the Binomial(total, p0) null:
//
//	z = (w − total·p0) / sqrt(total·p0·(1−p0)) >= miner.Significance
//
// k counts the values a projected dataset folded away (dropped) as well
// as those in items, so projection never changes the null. Features with
// a single observed value carry nothing to test and always survive, as
// does everything when the dataset has no weight at all.
func significantItems(items []itemset.Item, support []uint64, dropped func(flow.Feature) int, total uint64) []bool {
	var valuesPerFeature [flow.NumFeatures]int
	for _, it := range items {
		valuesPerFeature[it.Feature()]++
	}
	keep := make([]bool, len(items))
	for i, it := range items {
		k := valuesPerFeature[it.Feature()] + dropped(it.Feature())
		if total == 0 || k <= 1 {
			keep[i] = true
			continue
		}
		p0 := 1 / float64(k)
		mean := float64(total) * p0
		sd := math.Sqrt(float64(total) * p0 * (1 - p0))
		keep[i] = (float64(support[i])-mean)/sd >= miner.Significance
	}
	return keep
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

// node is one arena FP-tree node: its item's rank, int32 links to its
// parent and to the next node of the same rank, and its count.
type node struct {
	rank, parent, next int32
	count              uint64
}

// tree is an arena FP-tree over item ranks; node 0 is the root. head and
// sup are the header table, indexed by rank: the first node of the rank's
// chain (-1 for none) and the rank's count in the tree. items lists a
// conditional tree's ranks, ascending; a round's top-level tree holds
// every rank below its width.
type tree struct {
	nodes []node
	head  []int32
	sup   []uint64
	items []int32
}

// newTree returns an empty tree over ranks [0, width).
func newTree(width int) *tree {
	t := &tree{nodes: make([]node, 1), head: make([]int32, width), sup: make([]uint64, width)}
	t.nodes[0] = node{rank: -1, parent: -1, next: -1}
	for r := range t.head {
		t.head[r] = -1
	}
	return t
}

// reset empties t for reuse, clearing only the header entries it holds.
func (t *tree) reset() {
	for _, r := range t.items {
		t.head[r], t.sup[r] = -1, 0
	}
	t.items = t.items[:0]
	t.nodes = t.nodes[:1]
}

// build inserts every path's prefix of ranks below limit, each with the
// path's weight, reusing the nodes of its common prefix with the
// previous path and creating the rest — no child lookup. The counts are
// exact in any order; in comparePaths order the paths sharing a prefix
// are contiguous, so every prefix gets exactly one node.
func (t *tree) build(paths []path, limit int32) {
	var stack [flow.NumFeatures]int32 // node of each position of the previous path
	var prev []int32
	for i := range paths {
		pa := &paths[i]
		n := 0
		for n < int(pa.n) && pa.ranks[n] < limit {
			n++
		}
		cur := pa.ranks[:n]
		common := 0
		for common < min(n, len(prev)) && cur[common] == prev[common] {
			common++
		}
		parent := int32(0)
		if common > 0 {
			parent = stack[common-1]
		}
		for j := common; j < n; j++ {
			r := cur[j]
			id := int32(len(t.nodes))
			t.nodes = append(t.nodes, node{rank: r, parent: parent, next: t.head[r]})
			t.head[r] = id
			stack[j], parent = id, id
		}
		for j, r := range cur {
			t.nodes[stack[j]].count += pa.w
			t.sup[r] += pa.w
		}
		if n > 0 {
			prev = cur
		}
	}
}

// mineTop is the top level of the recursion, fanned out over a bounded
// worker pool: each rank of t is mined independently (t is read-only by
// then) into its own slice, and the slices concatenate in rank order, so
// the output does not depend on the worker count.
func (p *prepared) mineTop(ctx context.Context, t *tree, minSup uint64) ([]itemset.Frequent, error) {
	k := len(t.head)
	workers := min(runtime.GOMAXPROCS(0), maxWorkers, k)
	parts := make([][]itemset.Frequent, k)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wk := p.newWorker(k, minSup)
			for {
				r := int(next.Add(1)) - 1
				if r >= k {
					return
				}
				if errs[w] = ctx.Err(); errs[w] != nil {
					return
				}
				if errs[w] = wk.mineItem(ctx, t, nil, int32(r), 0, &parts[r]); errs[w] != nil {
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

// worker is one mining goroutine's scratch: a conditional tree per
// recursion depth (made on first use, then reused from one item to the
// next at that depth), the per-rank base counts (zero between uses), the
// ranks a base touched and the base paths.
type worker struct {
	p      *prepared
	minSup uint64
	conds  [flow.NumFeatures]*tree
	count  []uint64
	seen   []int32
	base   []path
}

func (p *prepared) newWorker(width int, minSup uint64) *worker {
	return &worker{p: p, minSup: minSup, count: make([]uint64, width)}
}

// mineTree mines every item of t extended with suffix, at the given
// conditional depth.
func (wk *worker) mineTree(ctx context.Context, t *tree, suffix itemset.Set, depth int, out *[]itemset.Frequent) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, r := range t.items {
		if err := wk.mineItem(ctx, t, suffix, r, depth, out); err != nil {
			return err
		}
	}
	return nil
}

// mineItem emits suffix ∪ {rank r} and, while the set leaves a feature
// unnamed, everything mined from r's conditional tree.
func (wk *worker) mineItem(ctx context.Context, t *tree, suffix itemset.Set, r int32, depth int, out *[]itemset.Frequent) error {
	set := suffix.Union(itemset.Set{wk.p.items[r]})
	*out = append(*out, itemset.Frequent{Items: set, Support: t.sup[r]})
	if len(set) == flow.NumFeatures {
		return nil
	}
	if wk.conds[depth] == nil {
		wk.conds[depth] = newTree(len(wk.count))
	}
	cond := wk.conds[depth]
	if !wk.conditional(t, r, cond) {
		return nil
	}
	return wk.mineTree(ctx, cond, set, depth+1, out)
}

// conditional builds into cond the conditional FP-tree of rank r in t:
// the prefix paths of r's nodes, weighted by those nodes' counts. It
// counts the base first and keeps only the ranks frequent in it, so cond
// holds frequent items only; it reports whether any are left.
func (wk *worker) conditional(t *tree, r int32, cond *tree) bool {
	cond.reset()
	seen := wk.seen[:0]
	for n := t.head[r]; n >= 0; n = t.nodes[n].next {
		c := t.nodes[n].count
		for a := t.nodes[n].parent; a > 0; a = t.nodes[a].parent {
			q := t.nodes[a].rank
			if wk.count[q] == 0 {
				seen = append(seen, q)
			}
			wk.count[q] += c
		}
	}
	for _, q := range seen {
		if wk.count[q] >= wk.minSup {
			cond.items = append(cond.items, q)
		}
	}
	if len(cond.items) > 0 {
		slices.Sort(cond.items)
		wk.base = wk.base[:0]
		for n := t.head[r]; n >= 0; n = t.nodes[n].next {
			pa := path{w: t.nodes[n].count}
			for a := t.nodes[n].parent; a > 0; a = t.nodes[a].parent {
				if q := t.nodes[a].rank; wk.count[q] >= wk.minSup {
					pa.ranks[pa.n] = q
					pa.n++
				}
			}
			if pa.n > 0 {
				slices.Reverse(pa.ranks[:pa.n]) // collected leaf→root
				wk.base = append(wk.base, pa)
			}
		}
		slices.SortFunc(wk.base, comparePaths)
		cond.build(wk.base, r)
	}
	for _, q := range seen {
		wk.count[q] = 0
	}
	wk.seen = seen
	return len(cond.items) > 0
}
