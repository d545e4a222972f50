package apriori

import (
	"context"
	"math/bits"
	"slices"
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

// Miner puts package-level Mine and Prepare behind miner.Miner and
// miner.Preparer. Registered as "apriori" (the default).
type Miner struct{}

// Mine implements miner.Miner.
func (Miner) Mine(ctx context.Context, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error) {
	return Mine(ctx, ds, opts)
}

func init() {
	miner.MustRegister("apriori", func() miner.Miner { return Miner{} })
}

// Mine returns all non-empty itemsets with support >= opts.MinSupport in
// the chosen dimension, canonically sorted (descending support, then
// descending length): Prepare at opts.MinSupport, then MineAt it.
// Cancelling ctx aborts mining within a scan stride with ctx.Err().
func Mine(ctx context.Context, ds *itemset.Dataset, opts Options) ([]itemset.Frequent, error) {
	p, err := Miner{}.Prepare(ctx, ds, opts)
	if err != nil {
		return nil, err
	}
	return p.MineAt(ctx, opts.MinSupport)
}

// ctxCheckStride is how many rows a scan processes between context checks.
const ctxCheckStride = 1024

// row is one transaction in id space: the ids of its items, ascending,
// and its weight in the prepared dimension.
type row struct {
	ids [flow.NumFeatures]int32
	n   int32
	w   uint64
}

// prepared is a dataset numbered for mining at any support >= floor: the
// items at or above the floor get ids in ascending Item order, so id
// order is itemset.Set order and the ids of one feature are contiguous.
// It is read-only after Prepare, so MineAt calls may share it.
type prepared struct {
	floor uint64
	items []itemset.Item // by id
	sups  []uint64       // by id
	rows  []row          // the rows holding at least two ids
}

// Prepare does the support-independent work once for ds in the dimension
// of opts: one pass sums the item supports (the only map), the items at or
// above opts.MinSupport are numbered, and each row becomes its ascending
// ids plus its weight. Cancelling ctx aborts the dataset passes within a
// stride, returning ctx.Err().
func (Miner) Prepare(ctx context.Context, ds *itemset.Dataset, opts Options) (miner.Prepared, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	sup := make(map[itemset.Item]uint64)
	for i := 0; i < ds.Len(); i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		tx := ds.Tx(i)
		w := tx.Weight(opts.ByPackets)
		for _, it := range tx.Items {
			if !it.Absent() {
				sup[it] += w
			}
		}
	}
	p := &prepared{floor: opts.MinSupport}
	for it, s := range sup {
		if s >= p.floor {
			p.items = append(p.items, it)
		} else {
			delete(sup, it)
		}
	}
	slices.Sort(p.items)
	p.sups = make([]uint64, len(p.items))
	for id, it := range p.items {
		p.sups[id], sup[it] = sup[it], uint64(id) // the map now holds the kept items' ids
	}
	for i := 0; i < ds.Len(); i++ {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		tx := ds.Tx(i)
		r := row{w: tx.Weight(opts.ByPackets)}
		for _, it := range tx.Items { // feature order, which is ascending Item order
			if id, ok := sup[it]; ok {
				r.ids[r.n] = int32(id)
				r.n++
			}
		}
		if r.n >= 2 {
			p.rows = append(p.rows, r)
		}
	}
	return p, nil
}

// MineAt mines the prepared dataset at minSup (>= the floor), level by
// level: level 1 from the support array, then for k = 2..5 (a row holds
// one item per feature) the level-k candidates as flat sorted id tuples,
// counted in one scan of the rows cut to the ids frequent at minSup. Safe
// for concurrent use.
func (p *prepared) MineAt(ctx context.Context, minSup uint64) ([]itemset.Frequent, error) {
	if err := miner.CheckFloor(minSup, p.floor); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var result []itemset.Frequent
	var level []int32 // the frequent (k-1)-sets, flat and sorted
	for id, s := range p.sups {
		if s >= minSup {
			level = append(level, int32(id))
			result = append(result, itemset.Frequent{Items: itemset.Set{p.items[id]}, Support: s})
		}
	}
	for k := 2; k <= flow.NumFeatures && len(p.rows) > 0; k++ {
		cands := p.candidates(level, k)
		if len(cands) == 0 {
			break
		}
		counts, err := p.count(ctx, minSup, cands, k)
		if err != nil {
			return nil, err
		}
		level = nil
		for c, s := range counts {
			if s < minSup {
				continue
			}
			ids := cands[c*k : (c+1)*k]
			level = append(level, ids...)
			set := make(itemset.Set, k)
			for i, id := range ids {
				set[i] = p.items[id]
			}
			result = append(result, itemset.Frequent{Items: set, Support: s})
		}
	}
	itemset.SortFrequent(result)
	return result, nil
}

// candidates returns the level-k candidates, flat and sorted, from the
// sorted frequent (k-1)-sets in level: the prefix join of neighbours, the
// same-feature prune (a flow holds one value per feature, so a set with
// two srcIPs is in no row), then the Apriori prune (every (k-1)-subset is
// frequent), which binary-searches level.
func (p *prepared) candidates(level []int32, k int) []int32 {
	m := k - 1
	n := len(level) / m
	var out []int32
	if k == 2 { // every cross-feature pair, so size it exactly
		var perFeature [flow.NumFeatures]int
		ids := n * n // twice the pairs, two ids each
		for _, id := range level {
			f := p.items[id].Feature()
			ids -= 2*perFeature[f] + 1 // less the pairs within a feature
			perFeature[f]++
		}
		out = make([]int32, 0, ids)
	}
	sub := make([]int32, m)
	for i := 0; i < n; i++ {
		a := level[i*m : (i+1)*m]
		for j := i + 1; j < n; j++ {
			b := level[j*m : (j+1)*m]
			if !slices.Equal(a[:m-1], b[:m-1]) {
				break // sorted: once prefixes diverge, no later j matches
			}
			last := b[m-1]
			if p.items[a[m-1]].Feature() == p.items[last].Feature() {
				continue
			}
			// Dropping a's last or b's last leaves b or a; try the rest.
			frequent := true
			for d := 0; d < m-1 && frequent; d++ {
				sub = append(append(append(sub[:0], a[:d]...), a[d+1:]...), last)
				frequent = find(level, m, 0, n, sub) >= 0
			}
			if frequent {
				out = append(append(out, a...), last)
			}
		}
	}
	return out
}

// count sums each candidate's support in one scan of the rows, each cut
// to its ids frequent at minSup by an array compare: a row's k-subsets
// (at most C(5,k) <= 10) are binary-searched among the candidates that
// share the subset's first id.
func (p *prepared) count(ctx context.Context, minSup uint64, cands []int32, k int) ([]uint64, error) {
	n := len(cands) / k
	// first[id] .. first[id+1] are the candidates starting with id.
	first := make([]int, len(p.items)+1)
	for c := 0; c < n; c++ {
		first[cands[c*k]+1]++
	}
	for id := range p.items {
		first[id+1] += first[id]
	}
	counts := make([]uint64, n)
	sub := make([]int32, k)
	for i := range p.rows {
		if i%ctxCheckStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		r := row{w: p.rows[i].w}
		for _, id := range p.rows[i].ids[:p.rows[i].n] {
			if p.sups[id] >= minSup {
				r.ids[r.n] = id
				r.n++
			}
		}
		if int(r.n) < k {
			continue
		}
		for mask := 1; mask < 1<<r.n; mask++ {
			if bits.OnesCount(uint(mask)) != k {
				continue
			}
			sub = sub[:0]
			for b := range r.n {
				if mask&(1<<b) != 0 {
					sub = append(sub, r.ids[b])
				}
			}
			if c := find(cands, k, first[sub[0]], first[sub[0]+1], sub); c >= 0 {
				counts[c] += r.w
			}
		}
	}
	return counts, nil
}

// find binary-searches the sorted tuples of length m in flat[lo*m:hi*m]
// for t and returns its index, or -1.
func find(flat []int32, m, lo, hi int, t []int32) int {
	c := lo + sort.Search(hi-lo, func(i int) bool { return slices.Compare(flat[(lo+i)*m:(lo+i+1)*m], t) >= 0 })
	if c < hi && slices.Equal(flat[c*m:(c+1)*m], t) {
		return c
	}
	return -1
}
