package nfstore

import "fmt"

// Sealer is the optional streaming interface over a flow store: engines
// that can finalize one bin at a time implement it, and the live ingest
// pipeline type-asserts for it instead of widening Engine (the idiom the
// facade already uses for SetSegmentFormat).
//
// Seal finalizes the segment of the bin containing t: pending rows are
// encoded and flushed, the zone-map sidecar is written, and the file
// handle closes. The bin stays queryable and even appendable — a late
// record reopens the segment — but a sealed bin is the streaming
// pipeline's signal that the bin is complete enough to detect over.
type Sealer interface {
	Seal(t uint32) error
}

// Compile-time checks: both store flavors are sealers.
var _ Sealer = (*Store)(nil)

// Seal finalizes the open segment of the bin containing t: the pending
// column block is encoded, buffers flush to disk, the zone-map sidecar
// is persisted, and the file handle closes (it reopens transparently if
// a late record arrives for the bin). Sealing a bin with no open writer
// is a no-op: the bin's bytes were already durable. This is the
// streaming pipeline's bin-boundary commit: after Seal returns, queries
// over the bin see every record ingested before the call.
func (s *Store) Seal(t uint32) error {
	bin := s.binStart(t)
	s.mu.Lock()
	var err error
	if w, ok := s.open[bin]; ok {
		err = w.seal(&s.enc)
		if err == nil {
			err = w.buf.Flush()
		}
		if err == nil {
			s.writeSidecar(bin, w)
		}
		if cerr := w.f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		delete(s.open, bin)
	}
	s.mu.Unlock()
	if err != nil {
		return fmt.Errorf("nfstore: seal bin %d: %w", bin, err)
	}
	return nil
}
