package incident

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/detector"
	"repro/internal/flow"
)

// The one correlation policy, sized to the 300 s measurement bins of
// the paper's deployments. Every pass — the live watcher's and a manual
// Correlate — runs it, so reconciliation always compares like with like.
const (
	// dedupWindow buckets alarm start times for the dedup key, in
	// seconds: repeated alarms from one detector for the same signature
	// within one window (one bin) collapse to one survivor.
	dedupWindow = 300
	// clusterGap is the TimeCluster joining distance in seconds: an
	// alarm within clusterGap of a cluster's interval joins it (two
	// bins — recon one bin before the attack still correlates).
	clusterGap = 600
	// minConfidence is the lead-lag confidence floor: a link is
	// reported only when its modal lag bucket holds at least this
	// fraction of the pair's observations.
	minConfidence = 0.5
)

// Lead-lag histogram shape: lags are quantized to lagBucket seconds
// (one bin) and bounded by maxLag (eight buckets) — larger separations
// are clustering's job, not causality.
const (
	lagBucket = 300
	maxLag    = 8 * lagBucket
)

// Link is one edge of an incident's lead-lag chain: alarms of kind From
// precede alarms of kind To by about LagSeconds.
type Link struct {
	From detector.Kind `json:"from"`
	To   detector.Kind `json:"to"`
	// LagSeconds is the modal lead, quantized to one 300 s lag bucket.
	LagSeconds uint32 `json:"lag_seconds"`
	// Confidence is the fraction of (From, To) alarm pairs in the modal
	// lag bucket.
	Confidence float64 `json:"confidence"`
	// Pairs is the number of alarm pairs the histogram was built from.
	Pairs int `json:"pairs"`
}

// String renders the link the way an operator reads it.
func (l Link) String() string {
	return fmt.Sprintf("%s leads %s by ~%ds (%.0f%% of %d pairs)",
		l.From, l.To, l.LagSeconds, 100*l.Confidence, l.Pairs)
}

// Incident is one correlated event: the alarms a single root cause
// raised across bins and detectors, with the lead-lag chain ordering
// its phases.
type Incident struct {
	// ID is assigned by the alarm database; empty until stored.
	ID string `json:"id"`
	// Interval is the union of the member alarms' intervals.
	Interval flow.Interval `json:"interval"`
	// Kinds lists the distinct member kinds in order of first
	// appearance (the event's phases in time order).
	Kinds []detector.Kind `json:"kinds"`
	// AlarmIDs are the member alarms — dedup survivors first (in time
	// order), then the duplicates they suppressed.
	AlarmIDs []string `json:"alarm_ids"`
	// Representative is the member alarm the incident's one extraction
	// represents: the highest-scoring survivor.
	Representative string `json:"representative"`
	// Score is the maximum member score.
	Score float64 `json:"score"`
	// Suppressed counts member alarms dedup collapsed onto a survivor.
	Suppressed int `json:"suppressed"`
	// Chain is the lead-lag chain over the member kinds, strongest
	// links first.
	Chain []Link `json:"chain,omitempty"`
}

// Leads reports whether the chain orders kind a before kind b.
func (inc *Incident) Leads(a, b detector.Kind) bool {
	for _, l := range inc.Chain {
		if l.From == a && l.To == b {
			return true
		}
	}
	return false
}

// Correlation is the outcome of one Correlate run.
type Correlation struct {
	// AlarmsIn counts the alarms considered (the storm size).
	AlarmsIn int
	// Survivors counts alarms left after dedup — one per distinct
	// DedupKey, the inputs to clustering.
	Survivors int
	// Incidents are the correlated events, in time order.
	Incidents []Incident
}

// Correlate collapses an alarm storm into incidents: exact dedup over
// (detector, kind, signature, time bucket), TimeCluster grouping
// of the survivors, and a per-incident lead-lag chain. Alarms must
// carry their database IDs. The result is deterministic for fixed
// alarms: input order does not matter, alarms are sorted internally.
func Correlate(alarms []detector.Alarm) *Correlation {
	sorted := make([]*detector.Alarm, 0, len(alarms))
	for i := range alarms {
		sorted = append(sorted, &alarms[i])
	}
	sort.Slice(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Interval.Start != b.Interval.Start {
			return a.Interval.Start < b.Interval.Start
		}
		ai, _ := strconv.Atoi(a.ID)
		bi, _ := strconv.Atoi(b.ID)
		if ai != bi {
			return ai < bi
		}
		return a.ID < b.ID
	})

	// Layer 1.5: dedup. The first alarm of each key survives and drives
	// clustering; later alarms with that key stay linked to it as
	// duplicates so incident membership is complete.
	var survivors []*member
	bySurvivorKey := make(map[string]*member)
	out := &Correlation{AlarmsIn: len(sorted)}
	for _, a := range sorted {
		key := DedupKey(a)
		if m, ok := bySurvivorKey[key]; ok {
			m.duplicates = append(m.duplicates, a)
			continue
		}
		m := &member{alarm: a}
		survivors = append(survivors, m)
		bySurvivorKey[key] = m
	}
	out.Survivors = len(survivors)

	// Layer 2a: TimeCluster. Survivors are in time order; one joins the
	// open cluster while its start is within clusterGap of the
	// cluster's running interval end (or overlaps it).
	var clusters [][]*member
	var cur []*member
	var curEnd uint32
	for _, m := range survivors {
		start := m.alarm.Interval.Start
		if len(cur) > 0 && start <= curEnd+clusterGap {
			cur = append(cur, m)
		} else {
			if len(cur) > 0 {
				clusters = append(clusters, cur)
			}
			cur = []*member{m}
			curEnd = 0
		}
		if end := m.alarm.Interval.End; end > curEnd {
			curEnd = end
		}
	}
	if len(cur) > 0 {
		clusters = append(clusters, cur)
	}

	// Layer 2b: one Incident per cluster, with its lead-lag chain.
	for _, cl := range clusters {
		out.Incidents = append(out.Incidents, buildIncident(cl))
	}
	return out
}

// buildIncident assembles one cluster's Incident record.
func buildIncident(cl []*member) Incident {
	inc := Incident{}
	seenKind := map[detector.Kind]bool{}
	var rep *detector.Alarm
	var survivorAlarms []*detector.Alarm
	for _, m := range cl {
		a := m.alarm
		survivorAlarms = append(survivorAlarms, a)
		if inc.Interval == (flow.Interval{}) {
			inc.Interval = a.Interval
		} else {
			if a.Interval.Start < inc.Interval.Start {
				inc.Interval.Start = a.Interval.Start
			}
			if a.Interval.End > inc.Interval.End {
				inc.Interval.End = a.Interval.End
			}
		}
		if !seenKind[a.Kind] {
			seenKind[a.Kind] = true
			inc.Kinds = append(inc.Kinds, a.Kind)
		}
		inc.AlarmIDs = append(inc.AlarmIDs, a.ID)
		if a.Score > inc.Score {
			inc.Score = a.Score
		}
		// Representative: highest score, earliest on ties (members are
		// already in time order, so strict > keeps the first).
		if rep == nil || a.Score > rep.Score {
			rep = a
		}
	}
	for _, m := range cl {
		for _, d := range m.duplicates {
			inc.AlarmIDs = append(inc.AlarmIDs, d.ID)
			inc.Suppressed++
		}
	}
	if rep != nil {
		inc.Representative = rep.ID
	}
	inc.Chain = leadLag(survivorAlarms)
	return inc
}

// member is one dedup survivor with the duplicates it suppressed.
type member struct {
	alarm      *detector.Alarm
	duplicates []*detector.Alarm
}

// leadLag builds the lead-lag chain over one incident's surviving
// alarms: for every unordered pair of distinct kinds it histograms the
// signed start-time lags (quantized to lagBucket), and the modal bucket
// — when strictly leading and confident enough — becomes a Link.
func leadLag(alarms []*detector.Alarm) []Link {
	byKind := map[detector.Kind][]*detector.Alarm{}
	var kinds []detector.Kind
	for _, a := range alarms {
		if len(byKind[a.Kind]) == 0 {
			kinds = append(kinds, a.Kind)
		}
		byKind[a.Kind] = append(byKind[a.Kind], a)
	}
	var links []Link
	for i := 0; i < len(kinds); i++ {
		for j := i + 1; j < len(kinds); j++ {
			a, b := kinds[i], kinds[j]
			if l, ok := pairLink(a, b, byKind[a], byKind[b]); ok {
				links = append(links, l)
			}
		}
	}
	// Strongest evidence first; deterministic tie-break on the names.
	sort.Slice(links, func(i, j int) bool {
		if links[i].Confidence != links[j].Confidence {
			return links[i].Confidence > links[j].Confidence
		}
		if links[i].From != links[j].From {
			return links[i].From < links[j].From
		}
		return links[i].To < links[j].To
	})
	return links
}

// pairLink histograms the signed lags from kind a to kind b and turns
// the modal bucket into a Link when it leads strictly and clears the
// confidence floor. A negative modal lag is the mirrored direction.
func pairLink(a, b detector.Kind, as, bs []*detector.Alarm) (Link, bool) {
	hist := map[int]int{}
	pairs := 0
	for _, x := range as {
		for _, y := range bs {
			lag := int64(y.Interval.Start) - int64(x.Interval.Start)
			if lag > maxLag || lag < -maxLag {
				continue
			}
			// Round to the nearest bucket so jitter within half a
			// bucket does not split the mode.
			bucket := int(math.Round(float64(lag) / lagBucket))
			hist[bucket]++
			pairs++
		}
	}
	if pairs == 0 {
		return Link{}, false
	}
	mode, modeCount := 0, -1
	for bucket, n := range hist {
		// Deterministic mode: higher count wins, smaller |bucket| then
		// smaller bucket break ties.
		if n > modeCount ||
			(n == modeCount && (abs(bucket) < abs(mode) || (abs(bucket) == abs(mode) && bucket < mode))) {
			mode, modeCount = bucket, n
		}
	}
	if mode == 0 {
		return Link{}, false // simultaneous, not causal
	}
	conf := float64(modeCount) / float64(pairs)
	if conf < minConfidence {
		return Link{}, false
	}
	l := Link{From: a, To: b, LagSeconds: uint32(mode) * lagBucket, Confidence: conf, Pairs: pairs}
	if mode < 0 {
		l.From, l.To = b, a
		l.LagSeconds = uint32(-mode) * lagBucket
	}
	return l, true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// ExtractionAlarm merges an incident's member alarms into the single
// alarm its extraction job runs on: the representative member's
// identity (ID, detector, kind, score), the union of member intervals,
// and the deduplicated union of member meta-data (sorted by feature
// then value, so member order never changes the mining input). One
// extraction over this alarm covers every phase of the event — the
// per-incident replacement for one extraction per alarm.
func ExtractionAlarm(inc *Incident, members []detector.Alarm) (detector.Alarm, error) {
	if len(members) == 0 {
		return detector.Alarm{}, fmt.Errorf("incident: %s has no member alarms", inc.ID)
	}
	var rep *detector.Alarm
	for i := range members {
		if members[i].ID == inc.Representative {
			rep = &members[i]
			break
		}
	}
	if rep == nil {
		rep = &members[0]
	}
	merged := detector.Alarm{
		ID:       rep.ID,
		Detector: rep.Detector,
		Interval: inc.Interval,
		Kind:     rep.Kind,
		Score:    inc.Score,
	}
	seen := map[detector.MetaItem]bool{}
	for _, m := range members {
		for _, it := range m.Meta {
			if !seen[it] {
				seen[it] = true
				merged.Meta = append(merged.Meta, it)
			}
		}
	}
	sort.Slice(merged.Meta, func(i, j int) bool {
		a, b := merged.Meta[i], merged.Meta[j]
		if a.Feature != b.Feature {
			return a.Feature < b.Feature
		}
		return a.Value < b.Value
	})
	return merged, nil
}
