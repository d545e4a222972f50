package nfstore

// SetPruning toggles zone-map segment pruning and lazy sidecar builds
// (enabled by default). Disabling it forces every overlapping segment to
// be scanned — the pre-index behavior the pruning tests compare against.
func (s *Store) SetPruning(enabled bool) { s.pruneOff.Store(!enabled) }

// len reports the current entry count.
func (c *zmCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}
