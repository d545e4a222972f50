package eval

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/detector"
	"repro/internal/gen"
	"repro/internal/nfstore"
)

// goldenDetectorsPath holds the alarms the registry-built batch
// detectors raise on the golden scenarios, keyed scenario → detector.
var goldenDetectorsPath = filepath.Join("testdata", "batch_detectors.golden.json")

// goldenAlarm is the pinned part of one alarm: everything but its
// alarm-database ID. Meta renders each item as "feature=value".
type goldenAlarm struct {
	Detector string   `json:"detector"`
	Start    uint32   `json:"start"`
	End      uint32   `json:"end"`
	Kind     string   `json:"kind"`
	Score    float64  `json:"score"`
	Meta     []string `json:"meta"`
}

func toGolden(alarms []detector.Alarm) []goldenAlarm {
	out := make([]goldenAlarm, 0, len(alarms))
	for _, a := range alarms {
		g := goldenAlarm{
			Detector: a.Detector, Start: a.Interval.Start, End: a.Interval.End,
			Kind: string(a.Kind), Score: a.Score, Meta: []string{},
		}
		for _, m := range a.Meta {
			g.Meta = append(g.Meta, m.String())
		}
		out = append(out, g)
	}
	return out
}

// sameAlarm compares two pinned alarms: exactly, except Score, which
// may differ in the last bits where the compiler fuses multiply-adds
// (arm64), so it matches to a relative 1e-9.
func sameAlarm(a, b goldenAlarm) bool {
	if a.Detector != b.Detector || a.Start != b.Start || a.End != b.End ||
		a.Kind != b.Kind || !slices.Equal(a.Meta, b.Meta) {
		return false
	}
	return math.Abs(a.Score-b.Score) <= 1e-9*math.Max(math.Abs(a.Score), math.Abs(b.Score))
}

// TestBatchDetectorsGolden pins what the three registered batch
// detectors, and the two online detectors' batch replay, raise —
// intervals, kinds, scores and meta items — on a scan and two flood
// catalog scenarios: the SYN flood is the flood the histogram detector
// sees, the point-to-point UDP flood the one only PCA's packet-volume
// channels see. Every detector runs one fixed configuration, so any
// change to a threshold, a window, a margin or a feature list shows
// here; cusum and sketch replay the live path (TestOnlineBatchParity
// pins live = batch), so their rows pin the online detectors too. The scenarios run 24 bins with the anomaly in bin 18
// instead of the catalog's 12 and 6, so the histogram detector is past
// its 12-bin training prefix when the anomaly lands. Regenerate
// intentionally with UPDATE_GOLDEN=1.
func TestBatchDetectorsGolden(t *testing.T) {
	got := map[string]map[string][]goldenAlarm{}
	for _, name := range []string{"portscan", "ddos-syn", "udpflood"} {
		def, ok := gen.Lookup(name)
		if !ok {
			t.Fatalf("catalog has no %q scenario", name)
		}
		store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
		if err != nil {
			t.Fatal(err)
		}
		defer store.Close()
		sc := def.Scenario(1)
		sc.Bins = 24
		sc.Placements = def.Placements(1, 18)
		truth, err := sc.Generate(store)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.Flush(); err != nil {
			t.Fatal(err)
		}
		got[name] = map[string][]goldenAlarm{}
		for _, det := range []string{"netreflex", "histogram", "pca", "cusum", "sketch"} {
			d, err := detector.New(det)
			if err != nil {
				t.Fatal(err)
			}
			alarms, err := d.Detect(t.Context(), store, truth.Span)
			if err != nil {
				t.Fatalf("%s on %s: %v", det, name, err)
			}
			got[name][det] = toGolden(alarms)
		}
	}

	if os.Getenv("UPDATE_GOLDEN") != "" {
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDetectorsPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenDetectorsPath)
		return
	}

	raw, err := os.ReadFile(goldenDetectorsPath)
	if err != nil {
		t.Fatalf("missing fixture (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	var want map[string]map[string][]goldenAlarm
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for scen, dets := range want {
		for det, wantAlarms := range dets {
			gotAlarms := got[scen][det]
			if !slices.EqualFunc(gotAlarms, wantAlarms, sameAlarm) {
				t.Errorf("%s on %s:\n got %+v\nwant %+v", det, scen, gotAlarms, wantAlarms)
			}
		}
	}
	if len(got) != len(want) {
		t.Errorf("fixture covers %d scenarios, the test runs %d", len(want), len(got))
	}
}
