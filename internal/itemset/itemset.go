package itemset

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// Item is one (feature, value) pair packed as feature<<32 | value.
// Because the feature occupies the high bits and each transaction has
// exactly one item per feature, a transaction's items are naturally sorted
// and itemsets over them can use plain integer ordering.
type Item uint64

// NewItem packs a feature and a value into an Item.
func NewItem(f flow.Feature, value uint32) Item {
	return Item(uint64(f)<<32 | uint64(value))
}

// Feature returns the item's traffic feature.
func (it Item) Feature() flow.Feature { return flow.Feature(it >> 32) }

// Value returns the item's raw 32-bit value.
func (it Item) Value() uint32 { return uint32(it) }

// absentBit marks a transaction slot whose value Dataset.Project folded
// away. No (feature, value) pair sets it, so an absent marker never equals
// a real item and never matches an itemset.
const absentBit Item = 1 << 63

// Absent reports whether the item is the absent marker Project leaves in a
// slot whose value fell below the projection floor. Miners skip it.
func (it Item) Absent() bool { return it&absentBit != 0 }

// String renders the item as "feature=value" with operator-friendly value
// formatting ("srcIP=10.191.64.165", "dstPort=80", "proto=tcp").
func (it Item) String() string {
	f := it.Feature()
	return f.String() + "=" + f.FormatValue(it.Value())
}

// Set is an itemset: a sorted slice of distinct items. The zero value is
// the empty itemset.
type Set []Item

// NewSet builds a Set from items in any order, deduplicating.
func NewSet(items ...Item) Set {
	s := make(Set, len(items))
	copy(s, items)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	// Dedup in place.
	out := s[:0]
	for i, it := range s {
		if i == 0 || it != s[i-1] {
			out = append(out, it)
		}
	}
	return out
}

// Contains reports whether the set includes item (binary search).
func (s Set) Contains(it Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= it })
	return i < len(s) && s[i] == it
}

// Union returns the sorted union of s and t.
func (s Set) Union(t Set) Set {
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Feature returns the value for feature f, with ok reporting presence.
// Itemsets never hold two values of one feature, so the lookup is unique.
func (s Set) Feature(f flow.Feature) (value uint32, ok bool) {
	for _, it := range s {
		if it.Feature() == f {
			return it.Value(), true
		}
	}
	return 0, false
}

// Key returns a compact string usable as a map key. Two sets have equal
// keys iff they are Equal.
func (s Set) Key() string {
	var b strings.Builder
	b.Grow(len(s) * 8)
	for _, it := range s {
		var raw [8]byte
		for k := 0; k < 8; k++ {
			raw[k] = byte(it >> (8 * k))
		}
		b.Write(raw[:])
	}
	return b.String()
}

// String renders the itemset as a comma-separated item list in feature
// order, e.g. "srcIP=10.191.64.165, dstPort=80".
func (s Set) String() string {
	if len(s) == 0 {
		return "{}"
	}
	parts := make([]string, len(s))
	for i, it := range s {
		parts[i] = it.String()
	}
	return strings.Join(parts, ", ")
}

// TxItems is the fixed-size item array of one transaction: one item per
// mined traffic feature, in feature order (which is also sorted Item
// order).
type TxItems [flow.NumFeatures]Item

// Tx is one aggregated transaction: a distinct flow 5-tuple with its two
// support weights. The paper's extended Apriori computes itemset support
// both in flows and in packets; carrying both on the transaction lets one
// dataset serve both mining passes.
type Tx struct {
	Items   TxItems
	Flows   uint64
	Packets uint64
}

// Weight returns the transaction's weight in the given dimension.
func (t *Tx) Weight(byPackets bool) uint64 {
	if byPackets {
		return t.Packets
	}
	return t.Flows
}

// ItemsOf builds the transaction item array for a flow record.
func ItemsOf(r *flow.Record) TxItems {
	var items TxItems
	for i, f := range flow.Features() {
		items[i] = NewItem(f, f.Value(r))
	}
	return items
}

// Dataset is a transaction database built from flow records, with
// identical 5-tuples (after Project, identical projected rows)
// aggregated. It is immutable once built.
type Dataset struct {
	txs          []Tx
	totalFlows   uint64
	totalPackets uint64
	dropped      [flow.NumFeatures]int // distinct values per feature Project folded away
}

// Builder buffers streamed flow records as five flat feature-value
// columns plus a packet column (28 B per record, no map), so candidate
// selection can ride a record iterator without materializing the raw
// []flow.Record, and folds them once, at the projection floor (Project).
// The zero value is ready to use.
type Builder struct {
	vals    [flow.NumFeatures][]uint32
	packets []uint64
}

// NewBuilder returns an empty streaming dataset builder.
func NewBuilder() *Builder { return &Builder{} }

// Add appends one flow record to the buffer. The record is only read,
// never retained.
func (b *Builder) Add(r *flow.Record) {
	b.vals[flow.FeatSrcIP] = append(b.vals[flow.FeatSrcIP], uint32(r.SrcIP))
	b.vals[flow.FeatDstIP] = append(b.vals[flow.FeatDstIP], uint32(r.DstIP))
	b.vals[flow.FeatSrcPort] = append(b.vals[flow.FeatSrcPort], uint32(r.SrcPort))
	b.vals[flow.FeatDstPort] = append(b.vals[flow.FeatDstPort], uint32(r.DstPort))
	b.vals[flow.FeatProto] = append(b.vals[flow.FeatProto], uint32(r.Proto))
	b.packets = append(b.packets, r.Packets)
}

// BatchColumns are the columns AddBatch reads: the five mined features
// and packets.
const BatchColumns nffilter.ColumnSet = 1<<nffilter.ColSrcIP | 1<<nffilter.ColDstIP | 1<<nffilter.ColSrcPort |
	1<<nffilter.ColDstPort | 1<<nffilter.ColProto | 1<<nffilter.ColPackets

// AddBatch appends every row of a scanned batch, which must carry
// BatchColumns. The batch is only read, never retained.
func (b *Builder) AddBatch(bt *nfstore.Batch) {
	b.vals[flow.FeatSrcIP] = append(b.vals[flow.FeatSrcIP], bt.SrcIP...)
	b.vals[flow.FeatDstIP] = append(b.vals[flow.FeatDstIP], bt.DstIP...)
	for _, v := range bt.SrcPort {
		b.vals[flow.FeatSrcPort] = append(b.vals[flow.FeatSrcPort], uint32(v))
	}
	for _, v := range bt.DstPort {
		b.vals[flow.FeatDstPort] = append(b.vals[flow.FeatDstPort], uint32(v))
	}
	for _, v := range bt.Proto {
		b.vals[flow.FeatProto] = append(b.vals[flow.FeatProto], uint32(v))
	}
	b.packets = append(b.packets, bt.Packets...)
}

// Flows returns the number of records added so far (the flow total of the
// dataset under construction) — the candidate-count the engine checks
// against MinCandidates before committing to a prefiltered dataset.
func (b *Builder) Flows() uint64 { return uint64(len(b.packets)) }

// Len returns the number of distinct 5-tuples added so far. It folds the
// buffer (Project(1)) to answer.
func (b *Builder) Len() int { return b.Project(1).Len() }

// Reset discards everything added so far, keeping the buffer's capacity —
// the full-interval fallback path reuses one builder after an
// insufficient prefiltered pass.
func (b *Builder) Reset() {
	for f := range b.vals {
		b.vals[f] = b.vals[f][:0]
	}
	b.packets = b.packets[:0]
}

// Dataset returns the records aggregated by 5-tuple: Project(1), which
// keeps every item. The builder stays usable.
func (b *Builder) Dataset() *Dataset { return b.Project(1) }

// Project returns the buffered records folded at floor: exactly
// Dataset.Project(floor) of their 5-tuple aggregation (same rows in
// first-seen order, same weights, totals and Dropped), in two passes and
// without the aggregation. Pass 1 dictionary-codes each column in
// first-seen order and sums every code's dual support. Pass 2 maps each
// code below floor in both dimensions to its column's absent code and
// folds the rows on their five codes.
func (b *Builder) Project(floor uint64) *Dataset {
	ds := &Dataset{totalFlows: b.Flows()}
	for _, p := range b.packets {
		ds.totalPackets += p
	}
	var codes [flow.NumFeatures][]uint32 // per row
	var items [flow.NumFeatures][]Item   // per code: kept item or the slot's absent marker
	for f := range b.vals {
		codes[f] = make([]uint32, len(b.packets))
		vals := encode(b.vals[f], codes[f], flow.Feature(f))
		sups := make([]DualSupport, len(vals))
		for i, c := range codes[f] {
			sups[c].Flows++
			sups[c].Packets += b.packets[i]
		}
		absent := uint32(len(vals))
		remap := make([]uint32, len(vals))
		items[f] = make([]Item, len(vals)+1)
		items[f][absent] = absentBit | NewItem(flow.Feature(f), 0)
		for c, v := range vals {
			if sups[c].Flows < floor && sups[c].Packets < floor {
				remap[c] = absent
				ds.dropped[f]++
				continue
			}
			remap[c] = uint32(c)
			items[f][c] = NewItem(flow.Feature(f), v)
		}
		for i, c := range codes[f] {
			codes[f][i] = remap[c]
		}
	}
	// Number the distinct rows in first-seen order, a row's number
	// overwriting its first code, then sum each number's weights.
	bound := 1
	for f := range items {
		bound = min(bound*(len(items[f])-ds.dropped[f]), len(b.packets))
	}
	rows := newFlatIndex[[flow.NumFeatures]uint32](bound)
	for i := range b.packets {
		var key [flow.NumFeatures]uint32
		h := uint64(0)
		for f := range key {
			key[f] = codes[f][i]
			h = (h ^ uint64(key[f])) * hashMul
		}
		codes[0][i] = rows.id(key, h)
	}
	ds.txs = slices.Grow(ds.txs, len(rows.keys))[:len(rows.keys)]
	for j, key := range rows.keys {
		for f, c := range key {
			ds.txs[j].Items[f] = items[f][c]
		}
	}
	for i, p := range b.packets {
		ds.txs[codes[0][i]].Flows++
		ds.txs[codes[0][i]].Packets += p
	}
	return ds
}

// hashMul is the 64-bit golden-ratio multiplier of flatIndex hashes.
const hashMul = 0x9E3779B97F4A7C15

// flatIndex numbers keys in first-seen order (keys[id] is id's key)
// through a flat open-addressing table: a power-of-two slot array,
// linear probing, id+1 per slot (0 = empty), sized at least twice the
// keys it is built for, so it never fills. A hash's top bits pick the
// first slot.
type flatIndex[K comparable] struct {
	keys  []K
	slots []uint32
	shift uint
}

// newFlatIndex returns an index for at most n keys.
func newFlatIndex[K comparable](n int) *flatIndex[K] {
	b := uint(bits.Len(uint(2 * n)))
	return &flatIndex[K]{slots: make([]uint32, 1<<b), shift: 64 - b}
}

// id returns k's number, numbering k if it is new; h is k's hash.
func (t *flatIndex[K]) id(k K, h uint64) uint32 {
	mask := uint64(len(t.slots) - 1)
	for at := h >> t.shift; ; at = (at + 1) & mask {
		switch s := t.slots[at]; {
		case s == 0:
			t.keys = append(t.keys, k)
			t.slots[at] = uint32(len(t.keys))
			return uint32(len(t.keys) - 1)
		case t.keys[s-1] == k:
			return s - 1
		}
	}
}

// encode writes the dictionary code of every value of col to codes, codes
// numbered in first-seen order, and returns the value of each code. Port
// and protocol values index a flat table; addresses go through a
// flatIndex.
func encode(col, codes []uint32, f flow.Feature) (vals []uint32) {
	if f == flow.FeatSrcIP || f == flow.FeatDstIP {
		ips := newFlatIndex[uint32](len(col))
		for i, v := range col {
			codes[i] = ips.id(v, uint64(v)*hashMul)
		}
		return ips.keys
	}
	table := make([]uint32, 1<<16) // code+1, 0 = unseen
	for i, v := range col {
		c := table[v]
		if c == 0 {
			vals = append(vals, v)
			c = uint32(len(vals))
			table[v] = c
		}
		codes[i] = c - 1
	}
	return vals
}

// FromTxs builds a Dataset directly from prepared transactions, which
// are not re-aggregated. Only tests call it: it builds rows no record
// stream yields, such as zero-flow transactions and repeated 5-tuples.
func FromTxs(txs []Tx) *Dataset {
	ds := &Dataset{txs: txs}
	for i := range txs {
		ds.totalFlows += txs[i].Flows
		ds.totalPackets += txs[i].Packets
	}
	return ds
}

// Len returns the number of distinct transactions.
func (ds *Dataset) Len() int { return len(ds.txs) }

// Tx returns the i-th transaction.
func (ds *Dataset) Tx(i int) *Tx { return &ds.txs[i] }

// TotalFlows returns the summed flow weight (the number of input records).
func (ds *Dataset) TotalFlows() uint64 { return ds.totalFlows }

// TotalPackets returns the summed packet weight.
func (ds *Dataset) TotalPackets() uint64 { return ds.totalPackets }

// Total returns the dataset total in the given dimension.
func (ds *Dataset) Total(byPackets bool) uint64 {
	if byPackets {
		return ds.totalPackets
	}
	return ds.totalFlows
}

// Dropped returns how many distinct values of feature f Project folded
// into the absent marker: the kept values of f plus Dropped(f) are the
// distinct values of f before projection.
func (ds *Dataset) Dropped(f flow.Feature) int { return ds.dropped[f] }

// Project returns ds with every item whose flow and packet supports are
// both below floor replaced by its slot's absent marker, and with the rows
// that become identical merged (weights summed). Totals carry over and
// Dropped counts the folded-away values per feature. The engine folds
// through Builder.Project instead; this map pass over weighted rows is
// the reference the tests hold it to.
//
// An itemset with support >= floor in either dimension contains only kept
// items, and a row contains it after projection exactly when it did
// before, so both of its supports are unchanged: mining at MinSupport >=
// floor, SupportAll and Coverage over such itemsets answer as on ds, over
// far fewer rows when most of a 5-tuple is noise (a scan's ephemeral
// ports, a flood's spoofed sources).
func (ds *Dataset) Project(floor uint64) *Dataset {
	sup := make(map[Item]DualSupport)
	for i := range ds.txs {
		tx := &ds.txs[i]
		for _, it := range tx.Items {
			s := sup[it]
			s.Flows += tx.Flows
			s.Packets += tx.Packets
			sup[it] = s
		}
	}
	below := func(it Item) bool {
		s := sup[it]
		return s.Flows < floor && s.Packets < floor
	}
	out := &Dataset{totalFlows: ds.totalFlows, totalPackets: ds.totalPackets, dropped: ds.dropped}
	for it := range sup {
		if !it.Absent() && below(it) {
			out.dropped[it.Feature()]++
		}
	}
	idx := make(map[TxItems]int)
	for i := range ds.txs {
		tx := ds.txs[i]
		for j, it := range tx.Items {
			if below(it) {
				tx.Items[j] = absentBit | NewItem(it.Feature(), 0)
			}
		}
		if k, ok := idx[tx.Items]; ok {
			out.txs[k].Flows += tx.Flows
			out.txs[k].Packets += tx.Packets
			continue
		}
		idx[tx.Items] = len(out.txs)
		out.txs = append(out.txs, tx)
	}
	return out
}

// Support computes the support of an itemset by a full scan, in the given
// dimension. Miners keep their own counters; this exists as the oracle the
// property tests compare against, and for ad-hoc queries.
func (ds *Dataset) Support(s Set, byPackets bool) uint64 {
	var sup uint64
	for i := range ds.txs {
		tx := &ds.txs[i]
		if txContains(&tx.Items, s) {
			sup += tx.Weight(byPackets)
		}
	}
	return sup
}

// txContains reports whether a transaction's items include every item of s.
// Transactions hold one item per feature in feature order, so each itemset
// item can be checked by direct feature indexing.
func txContains(items *TxItems, s Set) bool {
	for _, it := range s {
		if items[int(it.Feature())] != it {
			return false
		}
	}
	return true
}

// Frequent is a mined itemset with its support in the mining dimension.
type Frequent struct {
	Items   Set
	Support uint64
}

// String renders "itemset (support=N)".
func (f Frequent) String() string {
	return fmt.Sprintf("%s (support=%d)", f.Items, f.Support)
}

// SortFrequent orders mined itemsets canonically: by descending support,
// then by descending length (more specific first), then lexicographically.
// Both miners emit this order so results are directly comparable.
func SortFrequent(fs []Frequent) {
	sort.Slice(fs, func(i, j int) bool {
		if fs[i].Support != fs[j].Support {
			return fs[i].Support > fs[j].Support
		}
		if len(fs[i].Items) != len(fs[j].Items) {
			return len(fs[i].Items) > len(fs[j].Items)
		}
		a, b := fs[i].Items, fs[j].Items
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// MaximalOnly filters fs down to maximal itemsets: sets with no frequent
// proper superset in fs. The paper reports maximal itemsets to the
// operator — subsets restate the same flows with less detail. Input order
// is irrelevant; output is canonically sorted.
//
// Sets are visited longest first. A set is maximal exactly when no set
// visited before it covers it, and only a maximal set adds its proper
// subsets (at most 2^5-1, the empty one included) to the cover: a
// non-maximal set's subsets are already there through the maximal set
// above it. That is O(n + 31·maximal) instead of a subset check per pair.
// A cover key holds a set's items as uint64(item)+1 in order, so an item
// of value 0 (srcIP=0.0.0.0) is distinct from an empty slot. Every set
// holds at most flow.NumFeatures items, as every mined itemset does.
func MaximalOnly(fs []Frequent) []Frequent {
	cover := make(map[[flow.NumFeatures]uint64]struct{})
	out := []Frequent{}
	for l := flow.NumFeatures; l >= 0; l-- {
		for _, f := range fs {
			if len(f.Items) != l {
				continue
			}
			if _, covered := cover[subsetKey(f.Items, 1<<l-1)]; covered {
				continue
			}
			out = append(out, f)
			for mask := 0; mask < 1<<l-1; mask++ {
				cover[subsetKey(f.Items, mask)] = struct{}{}
			}
		}
	}
	SortFrequent(out)
	return out
}

// subsetKey is the cover key of the items of s that mask selects.
func subsetKey(s Set, mask int) (key [flow.NumFeatures]uint64) {
	n := 0
	for b, it := range s {
		if mask&(1<<b) != 0 {
			key[n] = uint64(it) + 1
			n++
		}
	}
	return key
}
