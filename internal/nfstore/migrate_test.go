package nfstore

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// TestMigrateRoundTrip: v1 -> v2 -> v1 preserves every record and every
// query answer; SegmentFormats tracks the rewrites.
func TestMigrateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const bins = 5
	s, err := CreateFormat(t.TempDir(), 300, FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 4000; i++ {
		r := randRecord(rng, bins*300)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	iv := flow.Interval{Start: 0, End: bins * 300}
	f, err := nffilter.Parse("proto udp or dst port 443")
	if err != nil {
		t.Fatal(err)
	}
	before, err := s.Records(t.Context(), iv, f)
	if err != nil {
		t.Fatal(err)
	}
	bf, bp, bb, err := s.Count(t.Context(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}

	check := func(stage string, wantFormat uint16, wantSegs int) {
		t.Helper()
		counts, err := s.SegmentFormats()
		if err != nil {
			t.Fatal(err)
		}
		if counts[wantFormat] != wantSegs || len(counts) != 1 {
			t.Fatalf("%s: SegmentFormats = %v, want all %d segments at v%d",
				stage, counts, wantSegs, wantFormat)
		}
		got, err := s.Records(t.Context(), iv, f)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, before) {
			t.Fatalf("%s: filtered records changed (%d vs %d)", stage, len(got), len(before))
		}
		gf, gp, gb, err := s.Count(t.Context(), iv, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gf != bf || gp != bp || gb != bb {
			t.Fatalf("%s: Count changed: (%d,%d,%d) vs (%d,%d,%d)", stage, gf, gp, gb, bf, bp, bb)
		}
	}
	check("pre-migration", FormatV1, bins)

	n, err := s.MigrateWorkers(t.Context(), FormatV2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != bins {
		t.Fatalf("Migrate to v2 rewrote %d segments, want %d", n, bins)
	}
	check("after v1->v2", FormatV2, bins)

	// Idempotent: everything already at the target.
	if n, err = s.MigrateWorkers(t.Context(), FormatV2, 1); err != nil || n != 0 {
		t.Fatalf("repeat Migrate = (%d, %v), want (0, nil)", n, err)
	}

	n, err = s.MigrateWorkers(t.Context(), FormatV1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != bins {
		t.Fatalf("Migrate back to v1 rewrote %d segments, want %d", n, bins)
	}
	check("after v2->v1", FormatV1, bins)

	if _, err := s.MigrateWorkers(t.Context(), 7, 1); err == nil {
		t.Fatal("Migrate accepted an unknown target format")
	}
}

// TestMigrateWithOpenWriter: migrating while a segment still has an open
// (partially buffered) writer seals it first and loses nothing.
func TestMigrateWithOpenWriter(t *testing.T) {
	s, err := CreateFormat(t.TempDir(), 300, FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 900; i++ {
		r := randRecord(rng, 300)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	// No Flush: the writer for bin 0 is still open.
	if _, err := s.MigrateWorkers(t.Context(), FormatV2, 1); err != nil {
		t.Fatal(err)
	}
	got, err := s.Records(t.Context(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 900 {
		t.Fatalf("after migrate with open writer: %d records, want 900", len(got))
	}

	// Appends after migration go to the segment's (new) format.
	r := randRecord(rng, 300)
	if err := s.Add(&r); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	counts, err := s.SegmentFormats()
	if err != nil {
		t.Fatal(err)
	}
	if counts[FormatV2] != 1 || len(counts) != 1 {
		t.Fatalf("post-migration append changed formats: %v", counts)
	}
	got, err = s.Records(t.Context(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 901 {
		t.Fatalf("after post-migration append: %d records, want 901", len(got))
	}
}

// TestMigrateCanceled: a canceled context stops the migration between
// segments and leaves a valid mixed-format store.
func TestMigrateCanceled(t *testing.T) {
	s, err := CreateFormat(t.TempDir(), 300, FormatV1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 2000; i++ {
		r := randRecord(rng, 4*300)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.MigrateWorkers(ctx, FormatV2, 1); err == nil {
		t.Fatal("Migrate ignored a canceled context")
	}
	// The store still answers queries whole.
	got, err := s.Records(t.Context(), flow.Interval{Start: 0, End: 4 * 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2000 {
		t.Fatalf("after canceled migrate: %d records, want 2000", len(got))
	}
}
