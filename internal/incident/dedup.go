package incident

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/detector"
)

// DedupKey builds the dedup key of one alarm: the detector, its kind
// classification, the signature-ish meta fields (sorted, so detector
// reporting order does not split keys), and the alarm's start bucketed
// to dedupWindow seconds. Two alarms share a key exactly when the same
// detector re-reports the same event within one bucket.
func DedupKey(a *detector.Alarm) string {
	metas := make([]string, len(a.Meta))
	for i, m := range a.Meta {
		metas[i] = m.String()
	}
	sort.Strings(metas)
	var b strings.Builder
	b.WriteString(a.Detector)
	b.WriteByte('|')
	b.WriteString(string(a.Kind))
	b.WriteByte('|')
	b.WriteString(strings.Join(metas, ","))
	fmt.Fprintf(&b, "|%d", a.Interval.Start/dedupWindow)
	return b.String()
}
