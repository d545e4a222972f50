package pca

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/linalg"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

// The detector's one configuration; doc.go gives the reason for each
// value.
const (
	varianceFraction = 0.92
	maxComponents    = 10
	alpha            = 0.001
	qMargin          = 2
	minBins          = 8
	trimFraction     = 0.1
	topColumns       = 4
	topValues        = 3
	minMetaGain      = 0.1
	minMetaShare     = 0.3
)

// features are the entropy channels per PoP: the four Lakhina features.
var features = flow.EntropyFeatures()

// Detector is the PCA subspace detector.
type Detector struct{}

// New returns a Detector.
func New() *Detector { return &Detector{} }

// init registers the detector under its public name.
func init() {
	detector.MustRegister("pca", func() (detector.Detector, error) {
		return New(), nil
	})
}

// Name is the detector name its alarms carry.
func (d *Detector) Name() string { return "pca-subspace" }

// channel identifies one matrix column's meaning.
type channel struct {
	pop     int
	feature flow.Feature // valid when !volume
	volume  bool
	packets bool // volume channel: packets (true) or flows (false)
}

func (c channel) String() string {
	if c.volume {
		if c.packets {
			return fmt.Sprintf("pop%d/packets", c.pop)
		}
		return fmt.Sprintf("pop%d/flows", c.pop)
	}
	return fmt.Sprintf("pop%d/%s", c.pop, c.feature)
}

// binData is the per-bin measurement state used for both the matrix and
// the drill-down.
type binData struct {
	iv    flow.Interval
	dists []map[flow.Feature]*stats.Dist // per PoP, flow-weighted
	// pktSrc/pktDst are packet-weighted endpoint distributions used to
	// drill into packet-volume alarms: a point-to-point flood dominates
	// packets while contributing almost no flows.
	pktSrc []*stats.Dist // per PoP
	pktDst []*stats.Dist // per PoP
	flows  []float64     // per PoP
	pkts   []float64     // per PoP
}

// Detect implements detector.Detector.
func (d *Detector) Detect(ctx context.Context, store nfstore.Engine, span flow.Interval) ([]detector.Alarm, error) {
	data, numPoPs, err := collect(ctx, store, span)
	if err != nil {
		return nil, err
	}
	if len(data) < minBins {
		return nil, fmt.Errorf("pca: span covers %d bins, need at least %d", len(data), minBins)
	}
	channels := channelsFor(numPoPs)
	raw := matrix(data, channels)

	// Robust fit: a strongly anomalous bin included in the fit rotates the
	// principal subspace toward itself and then hides from the residual
	// (Ringberg et al.). Pass 1 ranks bins by standardized magnitude and
	// trims the most extreme trimFraction; pass 2 fits centering, scaling
	// and the subspace on the clean bins only. All bins — including the
	// trimmed ones — are then scored against the clean model.
	keep := cleanRows(raw)
	means, stds := fitScaling(raw, keep)
	y := applyScaling(raw, means, stds)

	cov := covarianceOfRows(y, keep)
	eig, err := linalg.SymEigen(cov)
	if err != nil {
		return nil, fmt.Errorf("pca: eigendecomposition: %w", err)
	}
	p := subspaceDim(eig.Values)
	q := qThreshold(eig.Values, p, alpha)
	if math.IsNaN(q) || q <= 0 {
		// No residual variance at all: nothing can be anomalous.
		return nil, nil
	}
	limit := q * qMargin

	var alarms []detector.Alarm
	for i := range data {
		row := y.Row(i)
		res := linalg.ProjectResidual(eig.Vectors, p, row)
		spe := linalg.Norm2(res)
		if spe <= limit {
			continue
		}
		// Attribution uses the standardized deviations of the flagged row,
		// not the residual vector: projection spreads a large outlier's
		// energy across unrelated columns, while the z-scores point
		// directly at the deviating (PoP, channel) pairs.
		cols := topDeviantColumns(row, topColumns)
		meta := drillDown(data, i, cols, channels)
		alarms = append(alarms, detector.Alarm{
			Detector: d.Name(),
			Interval: data[i].iv,
			Kind:     detector.KindUnknown,
			Score:    spe / limit,
			Meta:     meta,
		})
	}
	return alarms, nil
}

// cleanRows returns the boolean keep-mask of rows used for fitting: all
// rows except the ceil(trimFraction·n) with the largest standardized
// magnitude (preliminary scaling over all rows).
func cleanRows(raw *linalg.Matrix) []bool {
	n := raw.Rows
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	trim := int(math.Ceil(trimFraction * float64(n)))
	if trim == 0 || n-trim < minBins {
		return keep
	}
	all := make([]bool, n)
	for i := range all {
		all[i] = true
	}
	means, stds := fitScaling(raw, all)
	pre := applyScaling(raw, means, stds)
	type rowNorm struct {
		row  int
		norm float64
	}
	norms := make([]rowNorm, n)
	for i := 0; i < n; i++ {
		norms[i] = rowNorm{row: i, norm: linalg.Norm2(pre.Row(i))}
	}
	sort.Slice(norms, func(a, b int) bool {
		if norms[a].norm != norms[b].norm {
			return norms[a].norm > norms[b].norm
		}
		return norms[a].row < norms[b].row
	})
	for _, rn := range norms[:trim] {
		keep[rn.row] = false
	}
	return keep
}

// fitScaling computes per-column mean and std over the kept rows.
func fitScaling(m *linalg.Matrix, keep []bool) (means, stds []float64) {
	means = make([]float64, m.Cols)
	stds = make([]float64, m.Cols)
	for c := 0; c < m.Cols; c++ {
		var w stats.Welford
		for r := 0; r < m.Rows; r++ {
			if keep[r] {
				w.Add(m.At(r, c))
			}
		}
		means[c] = w.Mean()
		stds[c] = w.Std()
	}
	return means, stds
}

// applyScaling returns a new matrix with columns centered by means and
// scaled by stds (columns with ~zero std are left centered only).
func applyScaling(m *linalg.Matrix, means, stds []float64) *linalg.Matrix {
	out := linalg.NewMatrix(m.Rows, m.Cols)
	for c := 0; c < m.Cols; c++ {
		inv := 0.0
		if stds[c] > 1e-12 {
			inv = 1 / stds[c]
		}
		for r := 0; r < m.Rows; r++ {
			v := m.At(r, c) - means[c]
			if inv != 0 {
				v *= inv
			}
			out.Set(r, c, v)
		}
	}
	return out
}

// covarianceOfRows computes the sample covariance over the kept rows of
// the (already scaled) matrix.
func covarianceOfRows(m *linalg.Matrix, keep []bool) *linalg.Matrix {
	kept := 0
	for _, k := range keep {
		if k {
			kept++
		}
	}
	sub := linalg.NewMatrix(kept, m.Cols)
	i := 0
	for r := 0; r < m.Rows; r++ {
		if keep[r] {
			copy(sub.Row(i), m.Row(r))
			i++
		}
	}
	// Rows are centered with the kept-row means already; Covariance
	// assumes centered input.
	return sub.Covariance()
}

// grow extends the bin's per-PoP state to cover PoPs 0..pop.
func (bd *binData) grow(pop int) {
	for len(bd.dists) <= pop {
		m := make(map[flow.Feature]*stats.Dist, len(features))
		for _, f := range features {
			m[f] = stats.NewDist()
		}
		bd.dists = append(bd.dists, m)
		bd.pktSrc = append(bd.pktSrc, stats.NewDist())
		bd.pktDst = append(bd.pktDst, stats.NewDist())
		bd.flows = append(bd.flows, 0)
		bd.pkts = append(bd.pkts, 0)
	}
}

// collect performs the single store pass building per-bin, per-PoP
// distributions and volume counters. The PoP count is discovered from
// the data: the largest Router index + 1.
func collect(ctx context.Context, store nfstore.Engine, span flow.Interval) ([]binData, int, error) {
	all, err := store.Bins()
	if err != nil {
		return nil, 0, err
	}
	numPoPs := 1
	var data []binData
	for _, bin := range all {
		iv := flow.Interval{Start: bin, End: bin + store.BinSeconds()}
		if !iv.Overlaps(span) {
			continue
		}
		bd := binData{iv: iv}
		err := store.Query(ctx, iv, nil, func(r *flow.Record) error {
			pop := int(r.Router)
			bd.grow(pop)
			for _, f := range features {
				bd.dists[pop][f].Add(f.Value(r), 1)
			}
			bd.pktSrc[pop].Add(uint32(r.SrcIP), float64(r.Packets))
			bd.pktDst[pop].Add(uint32(r.DstIP), float64(r.Packets))
			bd.flows[pop]++
			bd.pkts[pop] += float64(r.Packets)
			return nil
		})
		if err != nil {
			return nil, 0, err
		}
		numPoPs = max(numPoPs, len(bd.dists))
		data = append(data, bd)
	}
	// Every bin gets state for every PoP now that the count is known.
	for i := range data {
		data[i].grow(numPoPs - 1)
	}
	return data, numPoPs, nil
}

// channelsFor enumerates matrix columns for the PoP count: per PoP the
// entropy channels, then the flow- and packet-volume channels.
func channelsFor(numPoPs int) []channel {
	var chans []channel
	for pop := 0; pop < numPoPs; pop++ {
		for _, f := range features {
			chans = append(chans, channel{pop: pop, feature: f})
		}
		chans = append(chans, channel{pop: pop, volume: true, packets: false})
		chans = append(chans, channel{pop: pop, volume: true, packets: true})
	}
	return chans
}

// matrix assembles the bins × channels measurement matrix.
func matrix(data []binData, channels []channel) *linalg.Matrix {
	y := linalg.NewMatrix(len(data), len(channels))
	for i := range data {
		for j, ch := range channels {
			var v float64
			switch {
			case ch.volume && ch.packets:
				v = math.Log1p(data[i].pkts[ch.pop])
			case ch.volume:
				v = math.Log1p(data[i].flows[ch.pop])
			default:
				v = data[i].dists[ch.pop][ch.feature].NormEntropy()
			}
			y.Set(i, j, v)
		}
	}
	return y
}

// subspaceDim picks the principal subspace dimension.
func subspaceDim(eigvals []float64) int {
	total := 0.0
	for _, v := range eigvals {
		if v > 0 {
			total += v
		}
	}
	if total <= 0 {
		return 1
	}
	cum := 0.0
	for i, v := range eigvals {
		if v > 0 {
			cum += v
		}
		if cum/total >= varianceFraction || i+1 >= maxComponents {
			return i + 1
		}
	}
	return len(eigvals)
}

// qThreshold computes the Jackson-Mudholkar Q-statistic threshold at
// false-alarm rate alpha from the residual-subspace eigenvalues.
func qThreshold(eigvals []float64, p int, alpha float64) float64 {
	var th1, th2, th3 float64
	for _, l := range eigvals[min(p, len(eigvals)):] {
		if l < 0 {
			l = 0 // numerical noise on rank-deficient covariances
		}
		th1 += l
		th2 += l * l
		th3 += l * l * l
	}
	if th1 <= 0 || th2 <= 0 {
		return math.NaN()
	}
	h0 := 1 - 2*th1*th3/(3*th2*th2)
	if h0 < 0.001 {
		h0 = 0.001
	}
	ca := stats.NormQuantile(1 - alpha)
	term := ca*math.Sqrt(2*th2*h0*h0)/th1 + 1 + th2*h0*(h0-1)/(th1*th1)
	if term <= 0 {
		return math.NaN()
	}
	return th1 * math.Pow(term, 1/h0)
}

// topDeviantColumns returns the indexes of the k largest |standardized
// deviation| entries, descending.
func topDeviantColumns(res []float64, k int) []int {
	idx := make([]int, len(res))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := math.Abs(res[idx[a]]), math.Abs(res[idx[b]])
		if va != vb {
			return va > vb
		}
		return idx[a] < idx[b]
	})
	if len(idx) > k {
		idx = idx[:k]
	}
	return idx
}

// drillDown turns attributed columns into concrete meta-data by comparing
// the flagged bin's value distribution against the preceding bin's: the
// values whose traffic share grew most are reported.
func drillDown(data []binData, row int, cols []int, channels []channel) []detector.MetaItem {
	var meta []detector.MetaItem
	seen := make(map[detector.MetaItem]bool)
	add := func(m detector.MetaItem) {
		if !seen[m] {
			seen[m] = true
			meta = append(meta, m)
		}
	}
	for _, col := range cols {
		ch := channels[col]
		if ch.volume {
			// Volume channel: report the dominating endpoints at this PoP.
			// Packet-volume alarms rank by packets (a point-to-point flood
			// owns the packet distribution while adding almost no flows);
			// flow-volume alarms rank by the flow-weighted distributions.
			var srcDist, dstDist *stats.Dist
			if ch.packets {
				srcDist = data[row].pktSrc[ch.pop]
				dstDist = data[row].pktDst[ch.pop]
			} else {
				srcDist = data[row].dists[ch.pop][flow.FeatSrcIP]
				dstDist = data[row].dists[ch.pop][flow.FeatDstIP]
			}
			if srcDist != nil && srcDist.Total() > 0 {
				for _, vw := range srcDist.Top(1) {
					if vw.Weight/srcDist.Total() >= minMetaShare {
						add(detector.MetaItem{Feature: flow.FeatSrcIP, Value: vw.Value})
					}
				}
			}
			if dstDist != nil && dstDist.Total() > 0 {
				for _, vw := range dstDist.Top(1) {
					if vw.Weight/dstDist.Total() >= minMetaShare {
						add(detector.MetaItem{Feature: flow.FeatDstIP, Value: vw.Value})
					}
				}
			}
			continue
		}
		cur := data[row].dists[ch.pop][ch.feature]
		var ref *stats.Dist
		if row > 0 {
			ref = data[row-1].dists[ch.pop][ch.feature]
		}
		for _, g := range topGainers(cur, ref, topValues) {
			if g.gain >= minMetaGain {
				add(detector.MetaItem{Feature: ch.feature, Value: g.value})
			}
		}
	}
	return meta
}

// shareGain is a feature value with its traffic-share gain against the
// reference bin.
type shareGain struct {
	value uint32
	gain  float64
}

// topGainers returns up to k values of cur ranked by traffic-share gain
// over ref (which may be nil or empty, in which case plain share ranks).
func topGainers(cur, ref *stats.Dist, k int) []shareGain {
	var gains []shareGain
	cur.Values(func(v uint32, w float64) {
		share := w / cur.Total()
		refShare := 0.0
		if ref != nil && ref.Total() > 0 {
			refShare = ref.Weight(v) / ref.Total()
		}
		gains = append(gains, shareGain{value: v, gain: share - refShare})
	})
	sort.Slice(gains, func(i, j int) bool {
		if gains[i].gain != gains[j].gain {
			return gains[i].gain > gains[j].gain
		}
		return gains[i].value < gains[j].value
	})
	if len(gains) > k {
		gains = gains[:k]
	}
	return gains
}
