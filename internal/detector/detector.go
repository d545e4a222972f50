package detector

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// MetaItem is one feature/value pair of alarm meta-data, e.g.
// "srcIP=X.191.64.165" or "dstPort=80".
type MetaItem struct {
	Feature flow.Feature
	Value   uint32
}

// String renders the meta item as "feature=value".
func (m MetaItem) String() string {
	return m.Feature.String() + "=" + m.Feature.FormatValue(m.Value)
}

// Node returns the filter predicate matching flows that carry this
// feature value (src/dst qualified for addresses and ports).
func (m MetaItem) Node() nffilter.Node {
	switch m.Feature {
	case flow.FeatSrcIP:
		return &nffilter.IPMatch{Dir: nffilter.DirSrc, Addr: flow.IP(m.Value)}
	case flow.FeatDstIP:
		return &nffilter.IPMatch{Dir: nffilter.DirDst, Addr: flow.IP(m.Value)}
	case flow.FeatSrcPort:
		return &nffilter.PortMatch{Dir: nffilter.DirSrc, Op: nffilter.CmpEq, Port: uint16(m.Value)}
	case flow.FeatDstPort:
		return &nffilter.PortMatch{Dir: nffilter.DirDst, Op: nffilter.CmpEq, Port: uint16(m.Value)}
	case flow.FeatProto:
		return &nffilter.ProtoMatch{Proto: flow.Protocol(m.Value)}
	default:
		return nffilter.Any{}
	}
}

// Kind is the detector's coarse classification of an alarm. Values mirror
// the anomaly classes discussed in the paper's GEANT evaluation.
type Kind string

// Alarm kinds. The first block mirrors the anomaly classes of the paper's
// GEANT evaluation; the second covers the extended scenario catalog
// (internal/gen, docs/scenarios.md).
const (
	KindUnknown   Kind = "unknown"
	KindPortScan  Kind = "port scan"
	KindNetScan   Kind = "network scan"
	KindDoS       Kind = "dos"
	KindDDoS      Kind = "ddos"
	KindUDPFlood  Kind = "udp flood"
	KindFlashEvnt Kind = "flash event"

	KindAmplification Kind = "amplification ddos"
	KindICMPFlood     Kind = "icmp flood"
	KindBotnetScan    Kind = "botnet scan"
	KindOutage        Kind = "link outage"
	KindRoutingShift  Kind = "routing shift"
	KindSpam          Kind = "spam campaign"
)

// Alarm is one detector alarm: the flagged measurement interval, the
// detector's classification and score, and the meta-data the extraction
// system starts from.
type Alarm struct {
	// ID is assigned by the alarm database; empty until stored.
	ID string
	// Detector names the detector that raised the alarm.
	Detector string
	// Interval is the flagged measurement bin (or a union of bins).
	Interval flow.Interval
	// Kind is the detector's coarse label.
	Kind Kind
	// Score is a detector-specific magnitude (KL distance, SPE, ...);
	// larger means more anomalous. Scores are not comparable across
	// detectors.
	Score float64
	// Meta is the fine-grained meta-data, possibly incomplete (the paper's
	// premise is exactly that detectors under-report meta-data).
	Meta []MetaItem
}

// MetaFilter returns the candidate pre-filter implied by the alarm's
// meta-data: the union (OR) of all meta items, per the paper's GUI, which
// "starts from the meta-data provided by the anomaly detection tool" and
// considers flows matching any of the signaled feature values. A nil
// return means no meta-data — callers should fall back to the full
// interval.
func (a *Alarm) MetaFilter() *nffilter.Filter {
	if len(a.Meta) == 0 {
		return nil
	}
	kids := make([]nffilter.Node, len(a.Meta))
	for i, m := range a.Meta {
		kids[i] = m.Node()
	}
	return nffilter.FromNode(&nffilter.Or{Kids: kids})
}

// MetaSignature returns the filter matching exactly the flows the
// detector's meta-data describes: values of the same feature are OR-ed,
// different features AND-ed ("(srcIP=a or srcIP=b) and dstPort=80").
// This is "the flows provided by the detector" — the paper's
// additional-evidence statistic counts anomalous flows outside it.
// A nil return means no meta-data.
func (a *Alarm) MetaSignature() *nffilter.Filter {
	if len(a.Meta) == 0 {
		return nil
	}
	byFeature := make(map[flow.Feature][]nffilter.Node)
	var order []flow.Feature
	for _, m := range a.Meta {
		if _, seen := byFeature[m.Feature]; !seen {
			order = append(order, m.Feature)
		}
		byFeature[m.Feature] = append(byFeature[m.Feature], m.Node())
	}
	kids := make([]nffilter.Node, 0, len(order))
	for _, f := range order {
		nodes := byFeature[f]
		if len(nodes) == 1 {
			kids = append(kids, nodes[0])
		} else {
			kids = append(kids, &nffilter.Or{Kids: nodes})
		}
	}
	return nffilter.FromNode(&nffilter.And{Kids: kids})
}

// String renders a one-line operator summary of the alarm.
func (a *Alarm) String() string {
	metas := make([]string, len(a.Meta))
	for i, m := range a.Meta {
		metas[i] = m.String()
	}
	return fmt.Sprintf("[%s] %s %s score=%.3f meta={%s}",
		a.Detector, a.Kind, a.Interval, a.Score, strings.Join(metas, ", "))
}

// Detector is an anomaly detector running over a flow store.
type Detector interface {
	// Detect scans the span (aligned to store bins) and returns alarms in
	// time order. Implementations must not mutate the store and must
	// honor ctx cancellation, returning ctx.Err() promptly.
	Detect(ctx context.Context, store nfstore.Engine, span flow.Interval) ([]Alarm, error)
}
