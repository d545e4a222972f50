package stream

import (
	"testing"

	"repro/internal/detector"
	"repro/internal/flow"

	// Registers a batch-only detector so BuildDetectors' rejection path
	// is exercised against a real registry entry.
	_ "repro/internal/netreflex"
)

// rec builds a minimal record at time start with the given endpoints.
func rec(start uint32, src, dst byte, packets uint64) flow.Record {
	return flow.Record{
		Start:   start,
		SrcIP:   flow.IPFromOctets(10, 0, 0, src),
		DstIP:   flow.IPFromOctets(192, 0, 2, dst),
		SrcPort: 40000,
		DstPort: 80,
		Proto:   flow.ProtoTCP,
		Router:  1,
		Packets: packets,
		Bytes:   packets * 40,
	}
}

func TestWindowerStepTo(t *testing.T) {
	w := windower{width: 60}
	var closed []uint32
	note := func(s uint32) { closed = append(closed, s) }

	w.stepTo(10, note) // first record: no completed window yet
	if len(closed) != 0 {
		t.Fatalf("first step closed %v", closed)
	}
	w.stepTo(59, note) // same window
	w.stepTo(185, note)
	if len(closed) != 3 || closed[0] != 0 || closed[1] != 60 || closed[2] != 120 {
		t.Fatalf("jump closed %v, want [0 60 120]", closed)
	}
	closed = nil
	w.stepTo(100, note) // late record: window unchanged
	if len(closed) != 0 || w.cur != 180 {
		t.Fatalf("late record closed %v, cur=%d", closed, w.cur)
	}
}

func TestWindowerAdvanceShutdownSweep(t *testing.T) {
	w := windower{width: 60}
	var closed []uint32
	w.advance(^uint32(0), func(s uint32) { closed = append(closed, s) })
	if len(closed) != 0 {
		t.Fatalf("unstarted windower closed %v", closed)
	}
	w.stepTo(130, func(uint32) {})
	// The shutdown sweep must close the current window exactly once and
	// terminate despite now being the uint32 maximum.
	w.advance(^uint32(0), func(s uint32) { closed = append(closed, s) })
	if len(closed) != 1 || closed[0] != 120 {
		t.Fatalf("shutdown sweep closed %v, want [120]", closed)
	}
}

// TestCUSUMDetectsVolumeShift feeds a stable baseline then a 10x flood
// window and requires exactly that window to alarm, with the interval
// widened to its enclosing 300 s bin.
func TestCUSUMDetectsVolumeShift(t *testing.T) {
	c := NewCUSUM()
	var alarms []detector.Alarm
	feed := func(window uint32, n int) {
		for i := 0; i < n; i++ {
			r := rec(window*60, byte(i), byte(i%7), 2)
			alarms = append(alarms, c.Observe(&r)...)
		}
	}
	for w := uint32(0); w < 10; w++ {
		feed(w, 100) // baseline: 100 flows per minute
	}
	if len(alarms) != 0 {
		t.Fatalf("baseline raised %d alarms", len(alarms))
	}
	feed(10, 1000) // the flood window
	alarms = append(alarms, c.Advance(11*60)...)
	if len(alarms) != 1 {
		t.Fatalf("flood raised %d alarms, want 1", len(alarms))
	}
	a := alarms[0]
	if a.Detector != CUSUMName || a.Kind != detector.KindUnknown || len(a.Meta) != 0 {
		t.Fatalf("alarm = %+v; want unattributed cusum alarm without meta", a)
	}
	if a.Interval != (flow.Interval{Start: 600, End: 900}) {
		t.Fatalf("alarm interval %v not aligned to the 300 s bin", a.Interval)
	}
	if a.Score <= 6 {
		t.Fatalf("flood score %f not above the threshold", a.Score)
	}

	// Baseline non-contamination: a second flood window still alarms
	// against the pre-change mean.
	feed(11, 1000)
	post := c.Advance(12 * 60)
	if len(post) != 1 {
		t.Fatalf("sustained flood raised %d alarms in its second window, want 1", len(post))
	}
}

// TestCUSUMWarmup pins that no alarm fires before cusumMinWindows
// baseline windows, however extreme the deviation.
func TestCUSUMWarmup(t *testing.T) {
	c := NewCUSUM()
	var alarms []detector.Alarm
	for w := uint32(0); w < cusumMinWindows; w++ {
		n := 10
		if w >= 4 {
			n = 10000 // wild swings inside the warm-up
		}
		for i := 0; i < n; i++ {
			r := rec(w*cusumWindow, 1, 1, 1)
			alarms = append(alarms, c.Observe(&r)...)
		}
	}
	alarms = append(alarms, c.Advance(cusumMinWindows*cusumWindow)...)
	if len(alarms) != 0 {
		t.Fatalf("warm-up raised %d alarms", len(alarms))
	}
}

func TestCMSketchEstimates(t *testing.T) {
	s := newCMSketch()
	for i := 0; i < 100; i++ {
		s.add(7, 3)
	}
	if got := s.estimate(7); got < 300 {
		t.Fatalf("estimate(7) = %d, want >= 300 (count-min never undercounts)", got)
	}
	if got := s.estimate(99999); got > 300 {
		t.Fatalf("estimate of an unseen key = %d; collision across all 4 rows is implausible", got)
	}
	s.reset()
	if got := s.estimate(7); got != 0 {
		t.Fatalf("estimate after reset = %d", got)
	}
}

// TestSketchHeavyHitter pins both dimensions: a destination absorbing
// most of the window's flows from distinct sources is a DoS target; a
// single source fanning out to distinct destinations is a scanner.
func TestSketchHeavyHitter(t *testing.T) {
	for _, tc := range []struct {
		name     string
		fanIn    bool // many sources -> one dst (vs one src -> many dsts)
		wantKind detector.Kind
		wantFeat flow.Feature
	}{
		{"dos-target", true, detector.KindDoS, flow.FeatDstIP},
		{"scanner", false, detector.KindNetScan, flow.FeatSrcIP},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sk := NewSketch()
			var alarms []detector.Alarm
			// 300 heavy flows + 100 background flows spread over the one
			// 300 s window. Heavy endpoints use the .250 octet; background
			// spreads 10.0.0.x to 192.0.2.x so no background key nears the
			// 25% ratio.
			for i := 0; i < 300; i++ {
				var r flow.Record
				if tc.fanIn {
					r = rec(uint32(i), byte(i%200), 250, 2)
				} else {
					r = flow.Record{
						Start: uint32(i), Proto: flow.ProtoTCP, Packets: 2, Bytes: 80,
						SrcIP: flow.IPFromOctets(10, 0, 0, 250),
						DstIP: flow.IPFromOctets(192, 0, byte(i/200), byte(i%200)),
					}
				}
				alarms = append(alarms, sk.Observe(&r)...)
			}
			for i := 0; i < 100; i++ {
				r := rec(uint32(i*3), byte(i%50), byte(i%50), 2)
				alarms = append(alarms, sk.Observe(&r)...)
			}
			alarms = append(alarms, sk.Advance(sketchWindow)...)
			if len(alarms) != 1 {
				t.Fatalf("window raised %d alarms, want exactly the heavy hitter: %+v", len(alarms), alarms)
			}
			a := alarms[0]
			if a.Kind != tc.wantKind {
				t.Fatalf("kind = %v, want %v", a.Kind, tc.wantKind)
			}
			if len(a.Meta) != 1 || a.Meta[0].Feature != tc.wantFeat {
				t.Fatalf("meta = %+v, want one %v item", a.Meta, tc.wantFeat)
			}
			if a.Score < 0.5 || a.Score > 1 {
				t.Fatalf("share = %f, want ~0.75", a.Score)
			}
			if a.Interval != (flow.Interval{Start: 0, End: 300}) {
				t.Fatalf("interval %v not bin-aligned", a.Interval)
			}
		})
	}
}

// TestSketchQuietWindow pins the sketchMinFlows gate: a sparse window
// raises nothing even when one key owns all of it.
func TestSketchQuietWindow(t *testing.T) {
	sk := NewSketch()
	var alarms []detector.Alarm
	for i := 0; i < sketchMinFlows-1; i++ {
		r := rec(uint32(i*3), 1, 250, 2)
		alarms = append(alarms, sk.Observe(&r)...)
	}
	alarms = append(alarms, sk.Advance(sketchWindow)...)
	if len(alarms) != 0 {
		t.Fatalf("sparse window raised %d alarms", len(alarms))
	}
}

func TestBuildDetectors(t *testing.T) {
	dets, err := BuildDetectors(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(dets) != 2 {
		t.Fatalf("default online set = %v", dets)
	}
	if _, ok := dets[0].(*CUSUM); !ok {
		t.Fatalf("default online set[0] = %T, want *CUSUM", dets[0])
	}
	if _, ok := dets[1].(*Sketch); !ok {
		t.Fatalf("default online set[1] = %T, want *Sketch", dets[1])
	}
	if _, err := BuildDetectors([]string{"no-such-detector"}); err == nil {
		t.Fatal("unknown detector accepted")
	}
	// netreflex is registered but batch-only.
	if _, err := BuildDetectors([]string{"netreflex"}); err == nil {
		t.Fatal("batch-only detector accepted as online")
	}
}
