package histogram

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
	"repro/internal/stats"
)

// buildTrace writes nBins bins of steady background traffic into a fresh
// store, optionally injecting a port scan into bin scanBin (-1 disables).
// Background: 400 flows per bin with stable Zipf-ish addresses and ports.
// Scan: one srcIP hitting one dstIP on 800 distinct ports.
func buildTrace(t *testing.T, nBins, scanBin int) (*nfstore.Store, flow.Interval) {
	t.Helper()
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	rng := stats.NewRNG(42)
	zipAddr := stats.MustZipf(200, 1.1)
	ports := []uint16{80, 443, 53, 25, 110, 8080}
	base := uint32(1_000_000_200) // divisible by 300 so trace bins align to store bins
	for b := 0; b < nBins; b++ {
		start := base + uint32(b)*300
		for i := 0; i < 400; i++ {
			r := flow.Record{
				Start:   start + uint32(rng.Intn(300)),
				SrcIP:   flow.IPFromOctets(10, 0, byte(zipAddr.Rank(rng)/256), byte(zipAddr.Rank(rng)%256)),
				DstIP:   flow.IPFromOctets(192, 0, 2, byte(zipAddr.Rank(rng)%200)),
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstPort: ports[rng.Intn(len(ports))],
				Proto:   flow.ProtoTCP,
				Packets: uint64(rng.Intn(20) + 1),
			}
			r.Bytes = r.Packets * 500
			if err := store.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
		if b == scanBin {
			scanner := flow.MustParseIP("10.99.99.99")
			victim := flow.MustParseIP("192.0.2.250")
			for p := 0; p < 800; p++ {
				r := flow.Record{
					Start:   start + uint32(rng.Intn(300)),
					SrcIP:   scanner,
					DstIP:   victim,
					SrcPort: 55548,
					DstPort: uint16(1 + p),
					Proto:   flow.ProtoTCP,
					Packets: 1,
					Bytes:   40,
					Anno:    1,
				}
				if err := store.Add(&r); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	return store, flow.Interval{Start: base, End: base + uint32(nBins)*300}
}

func TestQuietTraceRaisesNoAlarms(t *testing.T) {
	store, span := buildTrace(t, 24, -1)
	d := New()
	alarms, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	// A 3-sigma threshold over ~12 post-training bins × 4 features can
	// produce the occasional statistical false positive, but a quiet trace
	// must stay near zero.
	if len(alarms) > 1 {
		t.Fatalf("quiet trace produced %d alarms: %v", len(alarms), alarms)
	}
}

func TestScanDetectedWithMeta(t *testing.T) {
	const scanBin = 18
	store, span := buildTrace(t, 24, scanBin)
	d := New()
	alarms, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	if len(alarms) == 0 {
		t.Fatal("scan bin produced no alarm")
	}
	scanStart := uint32(1_000_000_200) + scanBin*300
	var hit *detector.Alarm
	for i := range alarms {
		if alarms[i].Interval.Start == scanStart {
			hit = &alarms[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no alarm on the scan bin; alarms: %v", alarms)
	}
	if hit.Score <= 0 {
		t.Fatal("alarm score must be positive KL distance")
	}
	// Meta must include the scanner or the victim address.
	scanner := uint32(flow.MustParseIP("10.99.99.99"))
	victim := uint32(flow.MustParseIP("192.0.2.250"))
	found := false
	for _, m := range hit.Meta {
		if (m.Feature == flow.FeatSrcIP && m.Value == scanner) ||
			(m.Feature == flow.FeatDstIP && m.Value == victim) {
			found = true
		}
	}
	if !found {
		t.Fatalf("meta %v does not identify the scan endpoints", hit.Meta)
	}
}

func TestTrainingPrefixSilent(t *testing.T) {
	// A scan inside the 12-bin training prefix must not alarm.
	store, span := buildTrace(t, 16, 5)
	d := New()
	alarms, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	scanStart := uint32(1_000_000_200) + 5*300
	for _, a := range alarms {
		if a.Interval.Start == scanStart {
			t.Fatal("alarm raised inside the training prefix")
		}
	}
}

func TestDetectDeterministic(t *testing.T) {
	store, span := buildTrace(t, 20, 15)
	d := New()
	a1, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := d.Detect(t.Context(), store, span)
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) {
		t.Fatalf("non-deterministic alarm count: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i].Interval != a2[i].Interval || a1[i].Score != a2[i].Score {
			t.Fatal("non-deterministic alarms")
		}
	}
}

func TestHashBinStability(t *testing.T) {
	for _, v := range []uint32{0, 1, 80, 0xffffffff} {
		b1 := hashBin(v)
		b2 := hashBin(v)
		if b1 != b2 {
			t.Fatal("hashBin must be deterministic")
		}
		if b1 >= hashBins {
			t.Fatalf("hashBin out of range: %d", b1)
		}
	}
}

func TestName(t *testing.T) {
	if New().Name() != "histogram-kl" {
		t.Fatal("detector name")
	}
}
