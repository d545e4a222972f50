package netreflex

import (
	"context"
	"sort"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
	"repro/internal/pca"
)

// The classification heuristics' one configuration; doc.go gives the
// reason for each value.
const (
	scanPorts     = 100
	scanHosts     = 100
	ddosSources   = 50
	floodPackets  = 500_000
	dominantShare = 0.05
	changeFactor  = 5
)

// Detector is the simulated NetReflex.
type Detector struct{}

// New returns a Detector.
func New() *Detector { return &Detector{} }

// init registers the detector under its public name.
func init() {
	detector.MustRegister("netreflex", func() (detector.Detector, error) {
		return New(), nil
	})
}

// Name is the detector name its alarms carry.
func (d *Detector) Name() string { return "netreflex" }

// Detect implements detector.Detector: run the subspace detector, then
// classify each alarm and replace its meta-data with the dominant
// signature's fine-grained items.
func (d *Detector) Detect(ctx context.Context, store nfstore.Engine, span flow.Interval) ([]detector.Alarm, error) {
	raw, err := pca.New().Detect(ctx, store, span)
	if err != nil {
		return nil, err
	}
	out := make([]detector.Alarm, 0, len(raw))
	for _, a := range raw {
		kind, meta, err := classify(ctx, store, a.Interval)
		if err != nil {
			return nil, err
		}
		a.Detector = d.Name()
		a.Kind = kind
		if len(meta) > 0 {
			a.Meta = meta
		}
		out = append(out, a)
	}
	return out, nil
}

// pairKey identifies a (srcIP, dstIP) pair.
type pairKey struct {
	src, dst flow.IP
}

// intervalStats aggregates the structure of one interval's flows.
type intervalStats struct {
	totalFlows uint64

	pairFlows   map[pairKey]uint64
	pairPackets map[pairKey]uint64
	pairPorts   map[pairKey]map[uint16]struct{}  // distinct dstPorts per pair
	pairSrcPort map[pairKey]map[uint16]uint64    // srcPort flow counts per pair
	pairProto   map[pairKey]flow.Protocol        // last proto seen per pair
	srcDsts     map[flow.IP]map[flow.IP]struct{} // distinct dstIPs per src
	srcFlows    map[flow.IP]uint64
	srcDstPort  map[flow.IP]map[uint16]uint64    // dstPort flow counts per src
	dstSrcs     map[flow.IP]map[flow.IP]struct{} // distinct srcIPs per dst
	dstFlows    map[flow.IP]uint64
	dstDstPort  map[flow.IP]map[uint16]uint64 // dstPort flow counts per dst
}

// gatherStats aggregates the structure of one interval's flows.
func gatherStats(ctx context.Context, store nfstore.Engine, iv flow.Interval) (*intervalStats, error) {
	st := &intervalStats{
		pairFlows:   map[pairKey]uint64{},
		pairPackets: map[pairKey]uint64{},
		pairPorts:   map[pairKey]map[uint16]struct{}{},
		pairSrcPort: map[pairKey]map[uint16]uint64{},
		pairProto:   map[pairKey]flow.Protocol{},
		srcDsts:     map[flow.IP]map[flow.IP]struct{}{},
		srcFlows:    map[flow.IP]uint64{},
		srcDstPort:  map[flow.IP]map[uint16]uint64{},
		dstSrcs:     map[flow.IP]map[flow.IP]struct{}{},
		dstFlows:    map[flow.IP]uint64{},
		dstDstPort:  map[flow.IP]map[uint16]uint64{},
	}
	err := store.Query(ctx, iv, nil, func(r *flow.Record) error {
		st.totalFlows++
		pk := pairKey{src: r.SrcIP, dst: r.DstIP}
		st.pairFlows[pk]++
		st.pairPackets[pk] += r.Packets
		st.pairProto[pk] = r.Proto
		addSet16(st.pairPorts, pk, r.DstPort)
		addCount16(st.pairSrcPort, pk, r.SrcPort)
		addSetIP(st.srcDsts, r.SrcIP, r.DstIP)
		st.srcFlows[r.SrcIP]++
		addCountIP16(st.srcDstPort, r.SrcIP, r.DstPort)
		addSetIP(st.dstSrcs, r.DstIP, r.SrcIP)
		st.dstFlows[r.DstIP]++
		addCountIP16(st.dstDstPort, r.DstIP, r.DstPort)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// classify inspects the flows of the flagged interval — relative to the
// preceding baseline bin — and derives the anomaly kind plus the dominant
// signature's meta-data.
func classify(ctx context.Context, store nfstore.Engine, iv flow.Interval) (detector.Kind, []detector.MetaItem, error) {
	st, err := gatherStats(ctx, store, iv)
	if err != nil {
		return detector.KindUnknown, nil, err
	}
	if st.totalFlows == 0 {
		return detector.KindUnknown, nil, nil
	}
	// Baseline: the preceding bin (zero stats when the alarm is the first
	// bin on disk — every signature then counts as new).
	span := iv.End - iv.Start
	base := &intervalStats{}
	if iv.Start >= span {
		base, err = gatherStats(ctx, store, flow.Interval{Start: iv.Start - span, End: iv.Start})
		if err != nil {
			return detector.KindUnknown, nil, err
		}
	}
	spiked := func(now, before uint64) bool {
		return float64(now) >= changeFactor*float64(before)
	}

	// 1. Port scan: the dominant pair touches many distinct destination
	// ports. Meta mirrors the paper's example: srcIP, dstIP and (when one
	// source port dominates) srcPort — dstPort is wildcarded.
	if pk, ok := topPairByFlows(st); ok {
		ports := len(st.pairPorts[pk])
		if ports >= scanPorts && dominant(st.pairFlows[pk], st.totalFlows) &&
			spiked(st.pairFlows[pk], base.pairFlows[pk]) {
			meta := []detector.MetaItem{
				{Feature: flow.FeatSrcIP, Value: uint32(pk.src)},
				{Feature: flow.FeatDstIP, Value: uint32(pk.dst)},
			}
			if sp, ok := dominantKey16(st.pairSrcPort[pk], st.pairFlows[pk]); ok {
				meta = append(meta, detector.MetaItem{Feature: flow.FeatSrcPort, Value: uint32(sp)})
			}
			return detector.KindPortScan, meta, nil
		}
	}

	// 2. Network scan: one source touches many destinations on a dominant
	// port.
	if src, ok := topKeyByCount(st.srcFlows); ok {
		if len(st.srcDsts[src]) >= scanHosts && dominant(st.srcFlows[src], st.totalFlows) &&
			spiked(st.srcFlows[src], base.srcFlows[src]) {
			meta := []detector.MetaItem{{Feature: flow.FeatSrcIP, Value: uint32(src)}}
			if dp, ok := dominantKey16(st.srcDstPort[src], st.srcFlows[src]); ok {
				meta = append(meta, detector.MetaItem{Feature: flow.FeatDstPort, Value: uint32(dp)})
			}
			return detector.KindNetScan, meta, nil
		}
	}

	// 3. DDoS: one destination is hit by many sources on a dominant port.
	if dst, ok := topKeyByCount(st.dstFlows); ok {
		if len(st.dstSrcs[dst]) >= ddosSources && dominant(st.dstFlows[dst], st.totalFlows) &&
			spiked(st.dstFlows[dst], base.dstFlows[dst]) {
			meta := []detector.MetaItem{{Feature: flow.FeatDstIP, Value: uint32(dst)}}
			if dp, ok := dominantKey16(st.dstDstPort[dst], st.dstFlows[dst]); ok {
				meta = append(meta, detector.MetaItem{Feature: flow.FeatDstPort, Value: uint32(dp)})
			}
			return detector.KindDDoS, meta, nil
		}
	}

	// 4. Point-to-point flood: the dominant pair by packets moves flood-
	// scale packet volume. UDP floods are the class the paper calls out
	// as frequent in GEANT.
	if pk, ok := topPairByPackets(st); ok {
		if st.pairPackets[pk] >= floodPackets &&
			spiked(st.pairPackets[pk], base.pairPackets[pk]) {
			meta := []detector.MetaItem{
				{Feature: flow.FeatSrcIP, Value: uint32(pk.src)},
				{Feature: flow.FeatDstIP, Value: uint32(pk.dst)},
			}
			kind := detector.KindDoS
			if st.pairProto[pk] == flow.ProtoUDP {
				kind = detector.KindUDPFlood
			}
			return kind, meta, nil
		}
	}

	return detector.KindUnknown, nil, nil
}

// dominant reports whether count is a dominant share of total.
func dominant(count, total uint64) bool {
	return float64(count) >= dominantShare*float64(total)
}

// ---- small aggregation helpers (deterministic tie-breaks throughout) ----

func addSet16(m map[pairKey]map[uint16]struct{}, k pairKey, v uint16) {
	s := m[k]
	if s == nil {
		s = map[uint16]struct{}{}
		m[k] = s
	}
	s[v] = struct{}{}
}

func addCount16(m map[pairKey]map[uint16]uint64, k pairKey, v uint16) {
	s := m[k]
	if s == nil {
		s = map[uint16]uint64{}
		m[k] = s
	}
	s[v]++
}

func addSetIP(m map[flow.IP]map[flow.IP]struct{}, k, v flow.IP) {
	s := m[k]
	if s == nil {
		s = map[flow.IP]struct{}{}
		m[k] = s
	}
	s[v] = struct{}{}
}

func addCountIP16(m map[flow.IP]map[uint16]uint64, k flow.IP, v uint16) {
	s := m[k]
	if s == nil {
		s = map[uint16]uint64{}
		m[k] = s
	}
	s[v]++
}

func topPairByFlows(st *intervalStats) (pairKey, bool) {
	return topPair(st.pairFlows)
}

func topPairByPackets(st *intervalStats) (pairKey, bool) {
	return topPair(st.pairPackets)
}

func topPair(m map[pairKey]uint64) (pairKey, bool) {
	var best pairKey
	var bestCount uint64
	found := false
	keys := make([]pairKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].dst < keys[j].dst
	})
	for _, k := range keys {
		if m[k] > bestCount {
			best, bestCount, found = k, m[k], true
		}
	}
	return best, found
}

func topKeyByCount(m map[flow.IP]uint64) (flow.IP, bool) {
	var best flow.IP
	var bestCount uint64
	found := false
	keys := make([]flow.IP, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if m[k] > bestCount {
			best, bestCount, found = k, m[k], true
		}
	}
	return best, found
}

// dominantKey16 returns the key holding at least 60% of total, if any.
func dominantKey16(m map[uint16]uint64, total uint64) (uint16, bool) {
	if total == 0 {
		return 0, false
	}
	keys := make([]uint16, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if float64(m[k]) >= 0.6*float64(total) {
			return k, true
		}
	}
	return 0, false
}
