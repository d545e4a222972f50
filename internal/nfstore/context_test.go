package nfstore

import (
	"context"
	"errors"
	"testing"

	"repro/internal/flow"
)

// cancelStore builds a store with several segments of records.
func cancelStore(t *testing.T, bins, perBin int) *Store {
	t.Helper()
	s, err := CreateFormat(t.TempDir(), 300, DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for b := 0; b < bins; b++ {
		for i := 0; i < perBin; i++ {
			r := flow.Record{
				Start: uint32(b*300 + i%300), SrcIP: flow.IP(i + 1), DstIP: 2,
				SrcPort: 1, DstPort: 80, Proto: flow.ProtoTCP, Packets: 1, Bytes: 40,
			}
			if err := s.Add(&r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestQueryCancelledBeforeStart(t *testing.T) {
	s := cancelStore(t, 2, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seen := 0
	err := s.Query(ctx, flow.Interval{Start: 0, End: 600}, nil, func(*flow.Record) error {
		seen++
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen != 0 {
		t.Fatalf("callback ran %d times on a cancelled context", seen)
	}
}

func TestQueryCancelMidScan(t *testing.T) {
	// Several full ctxCheckStride windows per segment, so cancellation
	// from inside the callback must be observed within one stride —
	// well before the scan would otherwise finish.
	perBin := 4 * ctxCheckStride
	s := cancelStore(t, 3, perBin)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen := 0
	err := s.Query(ctx, flow.Interval{Start: 0, End: 900}, nil, func(*flow.Record) error {
		seen++
		if seen == 1 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if seen > ctxCheckStride {
		t.Fatalf("scan processed %d records after cancellation, want <= %d (one stride)",
			seen, ctxCheckStride)
	}
}

func TestRecordsAndCountPropagateCancellation(t *testing.T) {
	s := cancelStore(t, 1, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Records(ctx, flow.Interval{Start: 0, End: 300}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Records err = %v", err)
	}
	if _, _, _, err := s.Count(ctx, flow.Interval{Start: 0, End: 300}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Count err = %v", err)
	}
	if _, err := s.TopN(ctx, flow.Interval{Start: 0, End: 300}, nil, flow.FeatDstPort, ByFlows, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("TopN err = %v", err)
	}
	if _, err := s.Summaries(ctx, flow.Interval{Start: 0, End: 300}, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("Summaries err = %v", err)
	}
}
