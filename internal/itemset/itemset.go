package itemset

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/flow"
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

// Len returns the number of items.
func (s Set) Len() int { return len(s) }

// Contains reports whether the set includes item (binary search).
func (s Set) Contains(it Item) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= it })
	return i < len(s) && s[i] == it
}

// SubsetOf reports whether every item of s appears in t. Both sets are
// sorted, so this is a linear merge.
func (s Set) SubsetOf(t Set) bool {
	if len(s) > len(t) {
		return false
	}
	j := 0
	for _, it := range s {
		for j < len(t) && t[j] < it {
			j++
		}
		if j >= len(t) || t[j] != it {
			return false
		}
		j++
	}
	return true
}

// Equal reports whether two sets hold the same items.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
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

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
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

// FromRecords aggregates flow records into a Dataset. Each distinct
// 5-tuple becomes one transaction whose Flows weight is the number of
// records and whose Packets weight is their packet sum.
func FromRecords(records []flow.Record) *Dataset {
	b := NewBuilder()
	for i := range records {
		b.Add(&records[i])
	}
	return b.Dataset()
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
	// Presize for the rows the kept codes can form, at most one per record.
	bound := 1
	for f := range items {
		bound = min(bound*(len(items[f])-ds.dropped[f]), len(b.packets))
	}
	idx := make(map[[flow.NumFeatures]uint32]int32, bound)
	ds.txs = slices.Grow(ds.txs, bound)
	for i, p := range b.packets {
		var key [flow.NumFeatures]uint32
		for f := range key {
			key[f] = codes[f][i]
		}
		if j, ok := idx[key]; ok {
			ds.txs[j].Flows++
			ds.txs[j].Packets += p
			continue
		}
		idx[key] = int32(len(ds.txs))
		tx := Tx{Flows: 1, Packets: p}
		for f, c := range key {
			tx.Items[f] = items[f][c]
		}
		ds.txs = append(ds.txs, tx)
	}
	return ds
}

// encode writes the dictionary code of every value of col to codes, codes
// numbered in first-seen order, and returns the value of each code. Port
// and protocol values index a flat table; addresses go through a hash
// dictionary.
func encode(col, codes []uint32, f flow.Feature) (vals []uint32) {
	if f == flow.FeatSrcIP || f == flow.FeatDstIP {
		dict := make(map[uint32]uint32, len(col))
		for i, v := range col {
			c, ok := dict[v]
			if !ok {
				c = uint32(len(vals))
				dict[v] = c
				vals = append(vals, v)
			}
			codes[i] = c
		}
		return vals
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

// FromTxs builds a Dataset directly from prepared transactions (used by
// tests and by miners' cross-checks). Transactions are not re-aggregated.
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

// Match reports whether transaction items contain itemset s (exported form
// of the containment predicate shared by the miners).
func Match(items *TxItems, s Set) bool { return txContains(items, s) }

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
// Sets are bucketed by length and each set is tested only against the
// strictly longer buckets — a proper superset is necessarily longer — so
// the all-pairs scan the naive version runs (n² subset checks, most of
// them against equal-or-shorter sets that can never disqualify anything)
// collapses to the cross-length pairs only. A length-1 set in a typical
// mining result checks a handful of long sets instead of all n-1 others.
func MaximalOnly(fs []Frequent) []Frequent {
	maxLen := 0
	for i := range fs {
		if l := len(fs[i].Items); l > maxLen {
			maxLen = l
		}
	}
	// byLen[l] holds the indices of the length-l sets.
	byLen := make([][]int, maxLen+1)
	for i := range fs {
		l := len(fs[i].Items)
		byLen[l] = append(byLen[l], i)
	}
	out := make([]Frequent, 0, len(fs))
	for i := range fs {
		maximal := true
	scan:
		for l := len(fs[i].Items) + 1; l <= maxLen; l++ {
			for _, j := range byLen[l] {
				if fs[i].Items.SubsetOf(fs[j].Items) {
					maximal = false
					break scan
				}
			}
		}
		if maximal {
			out = append(out, fs[i])
		}
	}
	SortFrequent(out)
	return out
}
