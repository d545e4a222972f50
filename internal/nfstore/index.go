package nfstore

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// idxSuffix is appended to a segment path to name its zone-map sidecar
// ("nfcapd.<bin>.idx"). The suffix keeps sidecars invisible to Bins(),
// which only accepts purely numeric segment names.
const idxSuffix = ".idx"

// idxPath returns the sidecar path for a bin start.
func (s *Store) idxPath(binStart uint32) string {
	return filepath.Join(s.dir, segPrefix+strconv.FormatUint(uint64(binStart), 10)+idxSuffix)
}

// defaultZoneMapCacheEntries bounds the zmCache: 4096 decoded sidecars
// ≈ 9 MB — two weeks of 5-minute bins stay hot, while a year-long sweep
// in a long-lived process no longer pins one zone map per segment
// forever.
const defaultZoneMapCacheEntries = 4096

// zmCache memoizes decoded sidecars by bin so repeated queries validate
// them with one stat() instead of re-reading the file. It is a bounded
// LRU: a sweep over more segments than the cap recycles the least
// recently touched entries (evicted ones simply re-read their ~2 KB
// sidecar file on the next query).
type zmCache struct {
	mu  sync.Mutex
	cap int // 0 = defaultZoneMapCacheEntries (tests set smaller caps)
	m   map[uint32]*list.Element
	ll  *list.List // front = most recently used
}

// zmEntry is one cache slot.
type zmEntry struct {
	bin uint32
	z   *zoneMap
}

// limit resolves the effective entry cap. Caller holds c.mu.
func (c *zmCache) limit() int {
	if c.cap > 0 {
		return c.cap
	}
	return defaultZoneMapCacheEntries
}

// get returns the cached zone map for a bin, if any, refreshing its LRU
// position.
func (c *zmCache) get(bin uint32) *zoneMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[bin]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*zmEntry).z
}

// put replaces the cached zone map for a bin, evicting the least
// recently used entries beyond the cap.
func (c *zmCache) put(bin uint32, z *zoneMap) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.m == nil {
		c.m = map[uint32]*list.Element{}
		c.ll = list.New()
	}
	if el, ok := c.m[bin]; ok {
		el.Value.(*zmEntry).z = z
		c.ll.MoveToFront(el)
		return
	}
	c.m[bin] = c.ll.PushFront(&zmEntry{bin: bin, z: z})
	c.evictLocked()
}

// evictLocked drops LRU entries until the cache fits its cap. Caller
// holds c.mu.
func (c *zmCache) evictLocked() {
	if c.ll == nil {
		return
	}
	for limit := c.limit(); len(c.m) > limit; {
		back := c.ll.Back()
		if back == nil {
			return
		}
		c.ll.Remove(back)
		delete(c.m, back.Value.(*zmEntry).bin)
	}
}

// loadZoneMap returns a zone map that exactly covers the segment's current
// on-disk size, or nil when no such sidecar exists (missing, corrupt, or
// stale after further appends). A nil return means the caller must scan.
func (s *Store) loadZoneMap(bin uint32) *zoneMap {
	st, err := os.Stat(s.segPath(bin))
	if err != nil {
		return nil
	}
	if z := s.zmc.get(bin); z != nil && z.coveredSize == st.Size() {
		return z
	}
	raw, err := os.ReadFile(s.idxPath(bin))
	if err != nil {
		return nil
	}
	z, err := decodeZoneMap(raw, bin, s.binSeconds)
	if err != nil || z.coveredSize != st.Size() {
		// Corrupt or stale sidecar: ignore it; a later scan rebuilds it.
		return nil
	}
	s.zmc.put(bin, z)
	return z
}

// writeZoneMap persists a sidecar atomically (temp file + rename) and
// updates the cache. Sidecar writes are best-effort accelerators: callers
// may ignore the error, queries stay correct without the file.
func (s *Store) writeZoneMap(bin uint32, z *zoneMap) error {
	if z == nil || z.count == 0 {
		return nil
	}
	raw := encodeZoneMap(z, bin, s.binSeconds)
	tmp, err := os.CreateTemp(s.dir, segPrefix+"idx-*")
	if err != nil {
		return fmt.Errorf("nfstore: sidecar temp: %w", err)
	}
	_, werr := tmp.Write(raw)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("nfstore: sidecar write bin %d: %w", bin, errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), s.idxPath(bin)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("nfstore: sidecar rename bin %d: %w", bin, err)
	}
	s.zmc.put(bin, z)
	s.stats.sidecarsBuilt.Add(1)
	return nil
}

// BuildIndexes eagerly builds (or refreshes) the zone-map sidecar of every
// segment whose sidecar is missing or stale, returning how many it wrote.
// Stores predating the sidecar format work without this call — queries
// build sidecars lazily as they scan — but a bulk build front-loads the
// cost, e.g. right after Open on an archival store.
func (s *Store) BuildIndexes(ctx context.Context) (built int, err error) {
	bins, err := s.Bins()
	if err != nil {
		return 0, err
	}
	for _, bin := range bins {
		if err := ctx.Err(); err != nil {
			return built, err
		}
		if s.loadZoneMap(bin) != nil {
			continue
		}
		// A whole-segment scan with the rebuild on writes the sidecar;
		// bins with an open writer are skipped until they seal.
		p := segPlan{bin: bin, buildIdx: true}
		if err := s.scanSegment(ctx, p, scanOpts{all: true}, func(*Batch) error { return nil }); err != nil {
			return built, err
		}
		if s.loadZoneMap(bin) != nil {
			built++
		}
	}
	return built, nil
}
