package eval

import (
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// TestFillScanStore pins what bench/'s scan workloads assume of the two
// fills: the same record count, about the same matching volume under
// ScanFilter, and — clustered — every match inside the third bin, so
// only that bin's blocks can hold matching rows.
func TestFillScanStore(t *testing.T) {
	const records, bins = 20_000, 4
	span := flow.Interval{Start: 0, End: bins * 300}
	filter, err := nffilter.Parse(ScanFilter)
	if err != nil {
		t.Fatal(err)
	}
	matched := map[bool]uint64{}
	for _, clustered := range []bool{true, false} {
		s, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := FillScanStore(s, clustered, records, bins, 1); err != nil {
			t.Fatal(err)
		}
		if total, _, _, err := s.Count(t.Context(), span, nil); err != nil || total != records {
			t.Fatalf("clustered=%v: stored %d records (err %v), want %d", clustered, total, err, records)
		}
		err = s.Query(t.Context(), span, filter, func(r *flow.Record) error {
			matched[clustered]++
			if clustered && r.Start/300 != 2 {
				t.Errorf("clustered match at t=%d, outside the third bin", r.Start)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, u := float64(matched[true]), float64(matched[false])
	if c == 0 || u < 0.95*c || u > 1.05*c {
		t.Fatalf("filter %q matches %v clustered vs %v uniform records, want non-zero and within 5%%", ScanFilter, c, u)
	}
}
