package nfstore

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"repro/internal/flow"
)

// stripSidecars deletes every sidecar file and clears the cache,
// simulating a pre-index archive.
func stripSidecars(t *testing.T, s *Store) {
	t.Helper()
	for _, p := range sidecarPaths(t, s.dir) {
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
	}
	s.zmc = zmCache{}
}

const preExisting = 3000

// reopenUnindexed writes preExisting records to bin 0 in format, strips
// the sidecars, reopens the store and appends one record (not flushed).
// It returns the reopened store and every record written, in order.
func reopenUnindexed(t *testing.T, format uint16) (*Store, []flow.Record) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	s, err := CreateFormat(dir, 300, format)
	if err != nil {
		t.Fatal(err)
	}
	var recs []flow.Record
	for i := 0; i < preExisting; i++ {
		recs = append(recs, randRecord(rng, 300))
		if err := s.Add(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	stripSidecars(t, s2)
	recs = append(recs, randRecord(rng, 300))
	if err := s2.Add(&recs[preExisting]); err != nil {
		t.Fatal(err)
	}
	if s2.open[0].zm != nil {
		t.Fatal("writer reopening an unindexed segment keeps a zone map")
	}
	return s2, recs
}

var reopenIv = flow.Interval{Start: 0, End: 300}

func countFlows(t *testing.T, s *Store) uint64 {
	t.Helper()
	flows, _, _, err := s.Count(t.Context(), reopenIv, nil)
	if err != nil {
		t.Fatal(err)
	}
	return flows
}

// TestAsyncSeedOnPreIndexAppend: appending to a segment whose sidecar is
// gone no longer seeds a zone map (there is no background seed); once
// the bin seals, the next query persists a sidecar equal to a
// from-scratch summary of the whole file, which then prunes a selective
// filter.
func TestAsyncSeedOnPreIndexAppend(t *testing.T) {
	for _, format := range []uint16{FormatV1, FormatV2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			s, recs := reopenUnindexed(t, format)
			if err := s.Seal(0); err != nil {
				t.Fatal(err)
			}
			if got := countFlows(t, s); got != preExisting+1 {
				t.Fatalf("post-seal count = %d, want %d", got, preExisting+1)
			}
			z := s.loadZoneMap(0)
			if z == nil {
				t.Fatal("no sidecar after the first query over the sealed bin")
			}
			fi, err := os.Stat(s.segPath(0))
			if err != nil {
				t.Fatal(err)
			}
			want := newZoneMap()
			for i := range recs {
				want.add(&recs[i])
			}
			want.coveredSize, want.format = fi.Size(), format
			if *z != *want {
				t.Fatalf("rebuilt sidecar diverges from a from-scratch build:\n got %+v\nwant %+v", z, want)
			}

			s.ResetStats()
			if err := s.Query(t.Context(), reopenIv, mustFilter(t, "src ip 203.0.113.9"), func(*flow.Record) error {
				return errors.New("matched a record outside the segment's address range")
			}); err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.SegmentsPruned != 1 || st.SegmentsScanned != 0 {
				t.Fatalf("selective filter not pruned by the rebuilt sidecar: %+v", st)
			}
		})
	}
}

// TestAsyncSeedQueriesStayCorrect: while the reopened bin is open, reads
// see exactly the flushed prefix (before and after Flush) and no sidecar
// is persisted for it.
func TestAsyncSeedQueriesStayCorrect(t *testing.T) {
	for _, format := range []uint16{FormatV1, FormatV2} {
		t.Run(fmt.Sprintf("v%d", format), func(t *testing.T) {
			s, _ := reopenUnindexed(t, format)
			if got := countFlows(t, s); got != preExisting {
				t.Fatalf("pre-flush count = %d, want %d", got, preExisting)
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := countFlows(t, s); got != preExisting+1 {
				t.Fatalf("post-flush count = %d, want %d", got, preExisting+1)
			}
			if len(sidecarPaths(t, s.dir)) != 0 {
				t.Fatal("sidecar persisted while the bin is open")
			}
		})
	}
}

// TestZoneMapCacheLRU: the cache holds at most its cap, evicting the
// least recently touched bin first.
func TestZoneMapCacheLRU(t *testing.T) {
	c := zmCache{cap: 2}
	z1, z2, z3 := newZoneMap(), newZoneMap(), newZoneMap()
	c.put(100, z1)
	c.put(200, z2)
	if c.get(100) != z1 { // touch 100: 200 becomes LRU
		t.Fatal("get(100) missed")
	}
	c.put(300, z3)
	if c.len() != 2 {
		t.Fatalf("cache len = %d, want 2", c.len())
	}
	if c.get(200) != nil {
		t.Fatal("LRU bin 200 not evicted")
	}
	if c.get(100) != z1 || c.get(300) != z3 {
		t.Fatal("recently used entries evicted")
	}
	// Re-putting an existing bin updates in place without eviction.
	z1b := newZoneMap()
	c.put(100, z1b)
	if c.len() != 2 || c.get(100) != z1b {
		t.Fatal("in-place update misbehaved")
	}
}

// TestZoneMapCacheDefaultCap: with no explicit cap the default applies.
func TestZoneMapCacheDefaultCap(t *testing.T) {
	var c zmCache
	for bin := uint32(0); bin < defaultZoneMapCacheEntries+50; bin++ {
		c.put(bin*300, newZoneMap())
	}
	if c.len() != defaultZoneMapCacheEntries {
		t.Fatalf("cache len = %d, want default cap %d", c.len(), defaultZoneMapCacheEntries)
	}
}

// TestStoreZoneMapCacheBound: a sweep over more segments than the
// configured cap keeps the cache bounded while queries stay correct.
func TestStoreZoneMapCacheBound(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	s := randFilterStore(t, rng, 2000, 24) // 24 bins
	s.zmc = zmCache{cap: 4}
	span := flow.Interval{Start: 0, End: 24 * 300}
	wantFlows, _, _, err := s.Count(context.Background(), span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantFlows != 2000 {
		t.Fatalf("count = %d, want 2000", wantFlows)
	}
	// Sweep bin by bin (each loadZoneMap fills the cache) and verify the
	// bound holds.
	if _, err := s.Summaries(context.Background(), span, nil); err != nil {
		t.Fatal(err)
	}
	if n := s.zmc.len(); n > 4 {
		t.Fatalf("cache holds %d entries, cap 4", n)
	}
	// Evictions must not change results.
	again, _, _, err := s.Count(context.Background(), span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != wantFlows {
		t.Fatalf("post-eviction count = %d, want %d", again, wantFlows)
	}
}

// TestSummariesListsBinsOnce: one Summaries call over a many-bin store
// matches per-bin Counts, and per-bin planning goes through the shared
// bin listing (the segments-considered counter grows by exactly the
// overlapping bin count, as with Count, while ReadDir now happens once —
// timed by bench/'s nfstore.summaries_ms, asserted here via correctness).
func TestSummariesListsBinsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	s := randFilterStore(t, rng, 3000, 16)
	span := flow.Interval{Start: 0, End: 16 * 300}
	sums, err := s.Summaries(context.Background(), span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 16 {
		t.Fatalf("%d summaries, want 16", len(sums))
	}
	var total uint64
	for _, bs := range sums {
		flows, packets, bytes, err := s.Count(context.Background(), bs.Bin, nil)
		if err != nil {
			t.Fatal(err)
		}
		if bs.Flows != flows || bs.Packets != packets || bs.Bytes != bytes {
			t.Fatalf("bin %v summary %+v != count (%d,%d,%d)", bs.Bin, bs, flows, packets, bytes)
		}
		total += bs.Flows
	}
	if total != 3000 {
		t.Fatalf("summaries total %d flows, want 3000", total)
	}
}
