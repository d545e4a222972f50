package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/itemset"
	"repro/internal/miner"
	"repro/internal/nffilter"
	"repro/internal/nfstore"

	// Built-in miners self-register into the miner registry.
	_ "repro/internal/apriori"
	_ "repro/internal/fpgrowth"
)

// Extraction phases reported through the Progress seam, in the order
// the engine enters them.
const (
	PhaseCandidates  = "candidates"   // streaming candidate flows into the dataset
	PhaseMineFlows   = "mine-flows"   // self-tuning mining, flow-support dimension
	PhaseMinePackets = "mine-packets" // self-tuning mining, packet-support dimension
	PhaseSupports    = "supports"     // batch dual-support pass over merged itemsets
	PhaseBaseline    = "baseline"     // baseline-bin scan + false-positive filter
	PhaseRank        = "rank"         // scoring, sorting and cutting the final list
)

// Progress is one sampled progress observation of a running extraction.
type Progress struct {
	// Phase is the engine stage (one of the Phase* constants).
	Phase string
	// TuningRound is the 1-based self-tuning round within a mining phase
	// (0 outside mining).
	TuningRound int
	// CandidateFlows counts flows aggregated so far in a streaming phase.
	CandidateFlows uint64
	// Itemsets counts maximal itemsets mined so far in a mining phase.
	Itemsets int
}

// ProgressFunc observes extraction progress. It is called from the
// extraction goroutine, sampled (every progressStride records in
// streaming phases, once per tuning round while mining) so the hot
// loops pay nothing beyond a nil check — implementations should still
// return quickly.
type ProgressFunc func(Progress)

// progressStride is how many streamed records pass between progress
// samples: big enough that the callback is noise even on million-flow
// candidate sets, small enough for live feedback.
const progressStride = 8192

// Ranking modes for Options.Ranking. All modes share the same pinned
// tie-break (score desc, then longer itemsets first, then Set.Key asc),
// so equal-score rows order identically whichever mode scored them.
const (
	// RankSupport scores each itemset by the larger of its flow and
	// packet share of the candidate traffic — the paper's ranking and the
	// default.
	RankSupport = "support"
	// RankLift scores by lift: observed share over the independence
	// expectation of the itemset's items. Lift is inverse-support
	// weighted by construction — a conjunction of rare items that still
	// captures the alarm traffic outranks an equally-supported
	// conjunction of popular ones.
	RankLift = "lift"
	// RankWeighted blends the two: share × log2(1+lift), i.e. the
	// paper's support score damped or boosted by how surprising the
	// combination is (the FDA scoring shape).
	RankWeighted = "weighted"
)

// Options configures the extraction engine. The zero value is the
// paper's configuration: every zero field inherits its default, the
// meta pre-filter, the packet pass and the baseline filter all run, and
// explicitly invalid values are rejected by New. Only the ablations turn
// a paper feature off (NoPrefilter, FlowOnly).
type Options struct {
	// Miner selects the frequent-itemset miner by registry name
	// ("apriori", "fpgrowth", "fda", or an externally registered one).
	// Empty selects the default miner (apriori, as in the paper).
	Miner string
	// MinItemsets..MaxItemsets is the target band for the number of
	// reported maximal itemsets. Self-tuning lowers the support until at
	// least MinItemsets appear (or the floor is hit); the ranked list is
	// then cut at MaxItemsets.
	MinItemsets int
	MaxItemsets int
	// SupportFloor is the absolute lower bound the self-tuning loop will
	// not cross: itemsets below it are noise regardless of band. Zero
	// inherits the default (10); use 1 for an explicit "no floor". It is
	// a field, not a constant, because the benchmark reads it from
	// DefaultOptions.
	SupportFloor uint64
	// MaxTuningRounds bounds the halving loop per dimension; 1 holds the
	// initial support fixed (the self-tuning ablation).
	MaxTuningRounds int
	// NoPrefilter skips the alarm meta-data pre-filter and mines the
	// full interval. With the pre-filter on (the paper's workflow), a
	// pre-filter matching fewer than MinCandidates flows falls back to
	// the full interval. MinCandidates is a field, not a constant,
	// because the benchmark reads it from DefaultOptions.
	NoPrefilter   bool
	MinCandidates int
	// FlowOnly skips the packet-support pass: classic flow-only Apriori,
	// for ablations. By default the engine always mines both dimensions,
	// which is what the paper's extended Apriori does ("compute the
	// support of an itemset in terms of packets in addition to flows").
	FlowOnly bool
	// Ranking selects how the final itemset list is scored: RankSupport
	// (the paper's share score, the default), RankLift or RankWeighted.
	// Empty inherits RankSupport; unknown modes are rejected.
	Ranking string
	// Progress, when non-nil, receives sampled progress observations
	// (phase transitions, tuning rounds, streamed-flow counts). It is
	// exempt from validation; nil disables reporting entirely.
	Progress ProgressFunc
}

// coverageTarget drives the self-tuning loop beyond the MinItemsets band:
// as long as the mined itemsets cover (in the mining dimension) less than
// this fraction of the candidate traffic and fewer than MaxItemsets were
// found, the minimum support keeps halving. This is what lets extraction
// surface co-occurring anomalies weaker than the dominant one (the
// paper's Table 1 DDoS rows). initialSupportFraction is where each
// dimension's tuning starts, as a fraction of the candidate total.
// baselineRatio is the baseline filter's alarm-to-baseline share ratio.
const (
	coverageTarget         = 0.9
	initialSupportFraction = 0.2
	baselineRatio          = 3
)

// DefaultOptions returns the configuration used by the paper-reproduction
// experiments: Options{} with every default spelled out.
func DefaultOptions() Options {
	return Options{
		Miner:           miner.DefaultName,
		MinItemsets:     2,
		MaxItemsets:     10,
		SupportFloor:    10,
		MaxTuningRounds: 12,
		MinCandidates:   50,
		Ranking:         RankSupport,
	}
}

// validate fills zero fields with their defaults and rejects invalid
// values: a negative count, an inverted band or an unknown ranking is an
// error, never a silent rewrite.
func (o *Options) validate() error {
	def := DefaultOptions()
	for _, f := range []struct {
		name string
		v    *int
		def  int
	}{
		{"MinItemsets", &o.MinItemsets, def.MinItemsets},
		{"MaxItemsets", &o.MaxItemsets, def.MaxItemsets},
		{"MaxTuningRounds", &o.MaxTuningRounds, def.MaxTuningRounds},
		{"MinCandidates", &o.MinCandidates, def.MinCandidates},
	} {
		if *f.v < 0 {
			return fmt.Errorf("core: %s must be >= 0, got %d", f.name, *f.v)
		}
		if *f.v == 0 {
			*f.v = f.def
		}
	}
	if o.MaxItemsets < o.MinItemsets {
		return fmt.Errorf("core: MaxItemsets %d < MinItemsets %d", o.MaxItemsets, o.MinItemsets)
	}
	if o.SupportFloor == 0 {
		o.SupportFloor = def.SupportFloor
	}
	if o.Ranking == "" {
		o.Ranking = def.Ranking
	}
	switch o.Ranking {
	case RankSupport, RankLift, RankWeighted:
		return nil
	default:
		return fmt.Errorf("core: unknown ranking %q (have %q, %q, %q)",
			o.Ranking, RankSupport, RankLift, RankWeighted)
	}
}

// ItemsetReport is one ranked row of an extraction result — one line of
// the paper's Table 1.
type ItemsetReport struct {
	Items itemset.Set
	// FlowSupport and PacketSupport are the itemset's supports over the
	// candidate flows in both dimensions, whatever dimension mined it.
	FlowSupport   uint64
	PacketSupport uint64
	// Dimensions lists the support dimension(s) in which the itemset was
	// frequent ("flows", "packets" or both).
	Dimensions []nfstore.Weight
	// Score is the ranking key under the configured Options.Ranking mode:
	// for RankSupport (the default) the larger of the itemset's flow
	// share and packet share of the candidate traffic; for RankLift the
	// itemset's lift; for RankWeighted share × log2(1+lift).
	Score float64
}

// Filter returns the drill-down filter matching exactly the flows the
// itemset summarizes.
func (r *ItemsetReport) Filter() *nffilter.Filter {
	return FilterFor(r.Items)
}

// String renders the report row compactly.
func (r *ItemsetReport) String() string {
	return fmt.Sprintf("%s flows=%d packets=%d", r.Items, r.FlowSupport, r.PacketSupport)
}

// FilterFor builds the conjunction filter matching an itemset's flows.
func FilterFor(s itemset.Set) *nffilter.Filter {
	kids := make([]nffilter.Node, 0, len(s))
	for _, it := range s {
		m := detector.MetaItem{Feature: it.Feature(), Value: it.Value()}
		kids = append(kids, m.Node())
	}
	return nffilter.FromNode(&nffilter.And{Kids: kids})
}

// DimensionTuning records the self-tuning trajectory of one dimension.
type DimensionTuning struct {
	Dimension    nfstore.Weight
	InitialMin   uint64
	FinalMin     uint64
	Rounds       int
	ItemsetsSeen int
}

// Result is a full extraction outcome.
type Result struct {
	// Alarm is the input alarm.
	Alarm detector.Alarm
	// Prefiltered reports whether the meta pre-filter was applied (false
	// means full-interval fallback).
	Prefiltered bool
	// CandidateFlows / CandidatePackets describe the mined candidate set.
	CandidateFlows   uint64
	CandidatePackets uint64
	// Itemsets is the ranked final list.
	Itemsets []ItemsetReport
	// Tuning records the per-dimension self-tuning trajectories.
	Tuning []DimensionTuning
	// BaselineDropped counts itemsets suppressed by the baseline filter.
	BaselineDropped int
}

// Extractor runs anomaly extraction against a flow store.
type Extractor struct {
	store nfstore.Engine
	opts  Options
	m     miner.Miner
}

// New builds an Extractor. The options are validated once here, and the
// configured miner is resolved from the registry (an unknown name is an
// error listing the registered ones).
func New(store nfstore.Engine, opts Options) (*Extractor, error) {
	if store == nil {
		return nil, errors.New("core: nil store")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	m, err := miner.New(opts.Miner)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Extractor{store: store, opts: opts, m: m}, nil
}

// MustNew is New that panics on error.
func MustNew(store nfstore.Engine, opts Options) *Extractor {
	e, err := New(store, opts)
	if err != nil {
		panic(err)
	}
	return e
}

// ErrNoCandidates is returned when the alarm interval holds no flows.
var ErrNoCandidates = errors.New("core: alarm interval contains no flows")

// Extract runs the full extended-Apriori extraction for one alarm.
// Cancelling ctx aborts the candidate scan, the mining passes and the
// baseline pass promptly, returning ctx.Err().
//
// The candidate and baseline scans ride the store's pruned parallel query
// engine: the meta pre-filter is exactly the kind of selective filter
// whose zone-map pruning skips every segment outside the anomaly, so the
// prefiltered pass typically opens only the alarm interval's own bins.
// Records stream straight into the dataset builder's value columns — the
// candidate set is never held as a raw record slice.
func (e *Extractor) Extract(ctx context.Context, alarm *detector.Alarm) (*Result, error) {
	res := &Result{Alarm: *alarm}

	e.report(Progress{Phase: PhaseCandidates})
	ds, prefiltered, err := e.candidates(ctx, alarm)
	if err != nil {
		return nil, err
	}
	res.Prefiltered = prefiltered
	if ds.TotalFlows() == 0 {
		return nil, ErrNoCandidates
	}
	res.CandidateFlows = ds.TotalFlows()
	res.CandidatePackets = ds.TotalPackets()

	list, tuning, err := e.mine(ctx, ds)
	if err != nil {
		return nil, err
	}
	res.Tuning = tuning

	// Baseline false-positive suppression.
	e.report(Progress{Phase: PhaseBaseline, Itemsets: len(list)})
	list, res.BaselineDropped, err = e.baselineFilter(ctx, alarm.Interval, ds, list)
	if err != nil {
		return nil, err
	}

	// Rank under the configured mode, cut at MaxItemsets. The tie-break
	// below is pinned across ranking modes (determinism tests depend on
	// it): score desc, longer itemsets first, then canonical key.
	e.report(Progress{Phase: PhaseRank, Itemsets: len(list)})
	e.score(ds, res, list)
	sort.Slice(list, func(i, j int) bool {
		if list[i].Score != list[j].Score {
			return list[i].Score > list[j].Score
		}
		if len(list[i].Items) != len(list[j].Items) {
			return len(list[i].Items) > len(list[j].Items)
		}
		return list[i].Items.Key() < list[j].Items.Key()
	})
	if len(list) > e.opts.MaxItemsets {
		list = list[:e.opts.MaxItemsets]
	}
	res.Itemsets = make([]ItemsetReport, len(list))
	for i, r := range list {
		res.Itemsets[i] = *r
	}
	return res, nil
}

// mine runs the self-tuning miner in the flow dimension (the classic
// IMC'09 miner) and, unless FlowOnly, in the packet dimension (the
// paper's extension for low-flow floods), and merges the maximal
// itemsets of both into one report list in first-found order. One
// sharded parallel pass then fills both supports of every row, whatever
// dimension mined it. The packet pass runs whatever the flow pass found:
// flow-mined itemsets covering all packets through a broad set like
// "proto=udp" must not mask a flood's specific itemsets.
func (e *Extractor) mine(ctx context.Context, ds *itemset.Dataset) ([]*ItemsetReport, []DimensionTuning, error) {
	merged := make(map[string]*ItemsetReport)
	var (
		order  []*ItemsetReport // deterministic report order for counting
		tuning []DimensionTuning
	)
	dims := []bool{false, true} // by packets?
	if e.opts.FlowOnly {
		dims = dims[:1]
	}
	for _, byPackets := range dims {
		sets, dt, err := e.mineTuned(ctx, ds, byPackets)
		if err != nil {
			return nil, nil, err
		}
		tuning = append(tuning, dt)
		addAll(merged, &order, sets, dt.Dimension)
	}

	e.report(Progress{Phase: PhaseSupports, Itemsets: len(order)})
	for i, sup := range ds.SupportAll(reportSets(order), 0) {
		order[i].FlowSupport = sup.Flows
		order[i].PacketSupport = sup.Packets
	}
	return order, tuning, nil
}

// candidates streams the alarm interval's records into a column buffer:
// the meta pre-filtered pass first (unless NoPrefilter), with full-interval
// fallback when it buffers fewer than MinCandidates flows. The buffer is
// folded once, at SupportFloor: no tuning round mines below the floor, so
// every round sees the same supports over folded rows.
func (e *Extractor) candidates(ctx context.Context, alarm *detector.Alarm) (ds *itemset.Dataset, prefiltered bool, err error) {
	b := itemset.NewBuilder()
	if !e.opts.NoPrefilter {
		if mf := alarm.MetaFilter(); mf != nil {
			if err := e.fill(ctx, alarm.Interval, mf, PhaseCandidates, b.Add); err != nil {
				return nil, false, err
			}
			prefiltered = true
		}
	}
	if b.Flows() < uint64(e.opts.MinCandidates) {
		b.Reset()
		if err := e.fill(ctx, alarm.Interval, nil, PhaseCandidates, b.Add); err != nil {
			return nil, false, err
		}
		prefiltered = false
	}
	return b.Project(e.opts.SupportFloor), prefiltered, nil
}

// fill streams one interval scan into add, sampling progress every
// progressStride records (the nil check is all the hot loop pays when no
// observer is attached).
func (e *Extractor) fill(ctx context.Context, iv flow.Interval, f *nffilter.Filter, phase string, add func(*flow.Record)) error {
	var n uint64
	for r, err := range e.store.Iter(ctx, iv, f) {
		if err != nil {
			return err
		}
		add(r)
		if n++; e.opts.Progress != nil && n%progressStride == 0 {
			e.opts.Progress(Progress{Phase: phase, CandidateFlows: n})
		}
	}
	return nil
}

// report emits one progress observation when an observer is attached.
func (e *Extractor) report(p Progress) {
	if e.opts.Progress != nil {
		e.opts.Progress(p)
	}
}

// share returns part/total, or 0 for an empty total (never NaN).
func share(part, total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(part) / float64(total)
}

// score fills each report's Score under the configured ranking mode. The
// support score needs nothing beyond the supports already on the rows;
// the lift modes additionally need the candidate share of every single
// item appearing in the reported sets, computed in one batch SupportAll
// pass over the dataset (share guards all the zero-total cases, so no
// mode can produce NaN and poison the sort).
func (e *Extractor) score(ds *itemset.Dataset, res *Result, list []*ItemsetReport) {
	for _, r := range list {
		fShare := share(r.FlowSupport, res.CandidateFlows)
		pShare := share(r.PacketSupport, res.CandidatePackets)
		r.Score = max(fShare, pShare)
	}
	if e.opts.Ranking == RankSupport {
		return
	}

	var items []itemset.Item
	seen := make(map[itemset.Item]bool)
	for _, r := range list {
		for _, it := range r.Items {
			if !seen[it] {
				seen[it] = true
				items = append(items, it)
			}
		}
	}
	sets := make([]itemset.Set, len(items))
	for i, it := range items {
		sets[i] = itemset.Set{it}
	}
	fShares := make(map[itemset.Item]float64, len(items))
	pShares := make(map[itemset.Item]float64, len(items))
	for i, sup := range ds.SupportAll(sets, 0) {
		fShares[items[i]] = share(sup.Flows, res.CandidateFlows)
		pShares[items[i]] = share(sup.Packets, res.CandidatePackets)
	}

	for _, r := range list {
		lift := max(
			liftOf(share(r.FlowSupport, res.CandidateFlows), r.Items, fShares),
			liftOf(share(r.PacketSupport, res.CandidatePackets), r.Items, pShares),
		)
		switch e.opts.Ranking {
		case RankLift:
			r.Score = lift
		case RankWeighted:
			r.Score *= math.Log2(1 + lift)
		}
	}
}

// liftOf returns observed / expected share, where the expectation assumes
// the itemset's items occur independently (the product of their
// single-item shares). An item share of zero — only possible when the
// whole dimension carries no weight — makes the expectation meaningless,
// so the lift degrades to 0 and the other dimension decides.
func liftOf(observed float64, s itemset.Set, itemShare map[itemset.Item]float64) float64 {
	if observed == 0 {
		return 0
	}
	expected := 1.0
	for _, it := range s {
		sh := itemShare[it]
		if sh == 0 {
			return 0
		}
		expected *= sh
	}
	return observed / expected
}

// mineTuned runs the self-tuning mining loop in one dimension: prepare
// the dataset once at SupportFloor, then mine it from
// initialSupportFraction of the total, halving until the maximal-itemset
// count reaches MinItemsets (or the floor / round bound stops us).
func (e *Extractor) mineTuned(ctx context.Context, ds *itemset.Dataset, byPackets bool) ([]itemset.Frequent, DimensionTuning, error) {
	total := ds.Total(byPackets)
	dim := nfstore.ByFlows
	if byPackets {
		dim = nfstore.ByPackets
	}
	phase := PhaseMineFlows
	if byPackets {
		phase = PhaseMinePackets
	}
	tuning := DimensionTuning{Dimension: dim}
	minSup := uint64(float64(total) * initialSupportFraction)
	if minSup < e.opts.SupportFloor {
		minSup = e.opts.SupportFloor
	}
	tuning.InitialMin = minSup

	// Round 1 is reported before Prepare so the preparation counts toward
	// this dimension's phase. Prefilter is always on: only the miner
	// registered as "fda" honours it, so the registry name decides, at
	// the miner defaults for significance and lift.
	e.report(Progress{Phase: phase, TuningRound: 1})
	prep, err := miner.Prepare(ctx, e.m, ds, miner.Options{
		MinSupport: e.opts.SupportFloor,
		ByPackets:  byPackets,
		Prefilter:  true,
	})
	if err != nil {
		return nil, tuning, err
	}
	var result []itemset.Frequent
	for round := 0; round < e.opts.MaxTuningRounds; round++ {
		tuning.Rounds = round + 1
		if round > 0 {
			e.report(Progress{Phase: phase, TuningRound: round + 1, Itemsets: len(result)})
		}
		all, err := prep.MineAt(ctx, minSup)
		if err != nil {
			return nil, tuning, err
		}
		result = itemset.MaximalOnly(all)
		if minSup <= e.opts.SupportFloor {
			break
		}
		enough := len(result) >= e.opts.MinItemsets
		explained := ds.Coverage(setsOf(result), byPackets, 0) >= coverageTarget ||
			len(result) >= e.opts.MaxItemsets
		if enough && explained {
			break
		}
		minSup /= 2
		if minSup < e.opts.SupportFloor {
			minSup = e.opts.SupportFloor
		}
	}
	tuning.FinalMin = minSup
	tuning.ItemsetsSeen = len(result)
	return result, tuning, nil
}

// setsOf projects mined itemsets to their Set slices (the shape the
// sharded coverage and support passes consume).
func setsOf(fs []itemset.Frequent) []itemset.Set {
	sets := make([]itemset.Set, len(fs))
	for i := range fs {
		sets[i] = fs[i].Items
	}
	return sets
}

// reportSets is setsOf for report rows.
func reportSets(list []*ItemsetReport) []itemset.Set {
	sets := make([]itemset.Set, len(list))
	for i, r := range list {
		sets[i] = r.Items
	}
	return sets
}

// addAll merges mined itemsets into the report map, recording the mining
// dimension; supports are filled in afterwards by one batch SupportAll
// pass. order preserves first-insertion order so the batch pass and the
// final ranking are deterministic.
func addAll(merged map[string]*ItemsetReport, order *[]*ItemsetReport, sets []itemset.Frequent, dim nfstore.Weight) {
	for _, fr := range sets {
		key := fr.Items.Key()
		r, ok := merged[key]
		if !ok {
			r = &ItemsetReport{Items: fr.Items}
			merged[key] = r
			*order = append(*order, r)
		}
		r.Dimensions = append(r.Dimensions, dim)
	}
}

// baselineFilter drops itemsets whose traffic share in the preceding
// (baseline) bin is comparable to their share in the alarm bin: such
// itemsets describe normal traffic structure (popular servers, busy
// services), not the anomaly. The baseline records stream through once,
// and each is matched against the reported itemsets in place: only the
// K supports and the two totals are kept, never a baseline dataset.
func (e *Extractor) baselineFilter(ctx context.Context, iv flow.Interval, ds *itemset.Dataset, list []*ItemsetReport) (kept []*ItemsetReport, dropped int, err error) {
	span := iv.End - iv.Start
	if span == 0 || iv.Start < span {
		return list, 0, nil
	}
	baseIv := flow.Interval{Start: iv.Start - span, End: iv.Start}
	sets := reportSets(list)
	baseSups := make([]itemset.DualSupport, len(sets))
	var base itemset.DualSupport // the baseline bin's totals
	err = e.fill(ctx, baseIv, nil, PhaseBaseline, func(r *flow.Record) {
		items := itemset.ItemsOf(r)
		for i, s := range sets {
			if itemset.Match(&items, s) {
				baseSups[i].Flows++
				baseSups[i].Packets += r.Packets
			}
		}
		base.Flows++
		base.Packets += r.Packets
	})
	if err != nil {
		return nil, 0, err
	}
	if base.Flows == 0 {
		return list, 0, nil
	}
	// The packet dimension only gets a vote when both sides carry packet
	// weight: with a zero total on either side its shares are trivially
	// 0 >= ratio×0 and would exempt every itemset from the flow-dimension
	// verdict.
	packetsVote := ds.TotalPackets() > 0 && base.Packets > 0
	for i, r := range list {
		alarmShare := share(r.FlowSupport, ds.TotalFlows())
		baseShare := share(baseSups[i].Flows, base.Flows)
		// Keep when EITHER dimension shows a genuine surge.
		keep := alarmShare >= baselineRatio*baseShare
		if !keep && packetsVote {
			pAlarmShare := share(r.PacketSupport, ds.TotalPackets())
			pBaseShare := share(baseSups[i].Packets, base.Packets)
			keep = pAlarmShare >= baselineRatio*pBaseShare
		}
		if keep {
			kept = append(kept, r)
		} else {
			dropped++
		}
	}
	return kept, dropped, nil
}
