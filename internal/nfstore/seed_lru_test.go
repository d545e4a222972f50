package nfstore

import (
	"context"
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

// TestAsyncSeedOnPreIndexAppend: the first append to an existing
// unindexed segment no longer scans it synchronously — the seed runs in
// the background and the next flush writes a sidecar covering both the
// pre-existing records and the new appends.
func TestAsyncSeedOnPreIndexAppend(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dir := t.TempDir()
	s, err := Create(dir, 300)
	if err != nil {
		t.Fatal(err)
	}
	const preExisting = 3000
	for i := 0; i < preExisting; i++ {
		r := randRecord(rng, 300)
		if err := s.Add(&r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen as a pre-index archive.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s2.Close() })
	stripSidecars(t, s2)

	// First append: must return without a sidecar for the bin (the seed
	// is asynchronous) and must not lose the record.
	extra := randRecord(rng, 300)
	if err := s2.Add(&extra); err != nil {
		t.Fatal(err)
	}
	// The seed is running (or done) in the background; wait it out, then
	// flush so the merged zone map lands on disk.
	s2.seedWG.Wait()
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	z := s2.loadZoneMap(0)
	if z == nil {
		t.Fatal("no valid sidecar after seed + flush")
	}
	if z.count != preExisting+1 {
		t.Fatalf("sidecar counts %d records, want %d", z.count, preExisting+1)
	}

	// The sidecar must agree byte-for-byte with a from-scratch scan of
	// the final segment (merge(seed, delta) == full-scan zone map).
	want, err := s2.buildZoneMap(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if *z != *want {
		t.Fatalf("merged zone map diverges from full scan:\n got %+v\nwant %+v", z, want)
	}
}

// TestAsyncSeedQueriesStayCorrect: queries racing the background seed
// see every record (flushed before the reopen) plus the new appends
// after their flush.
func TestAsyncSeedQueriesStayCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	dir := t.TempDir()
	s, err := Create(dir, 300)
	if err != nil {
		t.Fatal(err)
	}
	const preExisting = 2000
	for i := 0; i < preExisting; i++ {
		r := randRecord(rng, 300)
		if err := s.Add(&r); err != nil {
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

	r := randRecord(rng, 300)
	if err := s2.Add(&r); err != nil {
		t.Fatal(err)
	}
	// Query while the seed may still be in flight: the flushed prefix is
	// all a reader may rely on.
	iv := flow.Interval{Start: 0, End: 300}
	flows, _, _, err := s2.Count(context.Background(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != preExisting {
		t.Fatalf("pre-flush count = %d, want %d", flows, preExisting)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	flows, _, _, err = s2.Count(context.Background(), iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != preExisting+1 {
		t.Fatalf("post-flush count = %d, want %d", flows, preExisting+1)
	}
}

// TestAsyncSeedCanceledByClose: Close while a seed scan runs cancels it
// and still closes cleanly; the segment simply stays scan-only.
func TestAsyncSeedCanceledByClose(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dir := t.TempDir()
	s, err := Create(dir, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		r := randRecord(rng, 300)
		if err := s.Add(&r); err != nil {
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
	stripSidecars(t, s2)
	r := randRecord(rng, 300)
	if err := s2.Add(&r); err != nil {
		t.Fatal(err)
	}
	// Close immediately: the seed may be mid-scan; Close must cancel it,
	// wait it out, and not corrupt anything.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// The store stays fully queryable (rebuilding sidecars lazily).
	flows, _, _, err := s2.Count(context.Background(), flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != 5001 {
		t.Fatalf("count after close = %d, want 5001", flows)
	}
}

// TestZoneMapMerge pins merge() against a from-scratch build over the
// concatenated record stream.
func TestZoneMapMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a, b, both := newZoneMap(), newZoneMap(), newZoneMap()
	for i := 0; i < 500; i++ {
		r := randRecord(rng, 300)
		a.add(&r)
		both.add(&r)
	}
	for i := 0; i < 300; i++ {
		r := randRecord(rng, 300)
		b.add(&r)
		both.add(&r)
	}
	a.merge(b)
	if *a != *both {
		t.Fatalf("merge diverges from sequential build:\n got %+v\nwant %+v", a, both)
	}
	// Merging nil and empty is a no-op; merging into empty copies.
	cp := *both
	cp.merge(nil)
	cp.merge(newZoneMap())
	if cp != *both {
		t.Fatal("nil/empty merge must not change the target")
	}
	empty := newZoneMap()
	empty.merge(both)
	if *empty != *both {
		t.Fatal("merge into empty must copy")
	}
}

// TestZoneMapCacheLRU: the cache holds at most its cap, evicting the
// least recently touched bin first.
func TestZoneMapCacheLRU(t *testing.T) {
	var c zmCache
	c.setCap(2)
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
	// Shrinking the cap evicts immediately.
	c.setCap(1)
	if c.len() != 1 {
		t.Fatalf("post-shrink len = %d, want 1", c.len())
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
	s.SetZoneMapCacheSize(4)
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
