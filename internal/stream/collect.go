package stream

import (
	"sort"

	"repro/internal/flow"
)

// Collector captures every added record in memory. It adapts the
// scenario generator — which writes into a store-like sink — into a
// record stream for live replay: generate into a Collector, then feed
// Sorted() through Ingest in clock order. Used by the live-mode tests,
// flowgen -live, and the streaming bench.
type Collector struct {
	binSeconds uint32
	// Captured holds the captured records in Add order.
	Captured []flow.Record
}

// NewCollector returns a collector with the given bin width (which only
// affects BinSeconds; capture is unbinned). Zero takes the standard
// 300 s measurement bin.
func NewCollector(binSeconds uint32) *Collector {
	if binSeconds == 0 {
		binSeconds = 300
	}
	return &Collector{binSeconds: binSeconds}
}

// Sorted returns the captured records in stream-clock order (stable by
// Start, so equal-start records keep generation order).
func (c *Collector) Sorted() []flow.Record {
	out := make([]flow.Record, len(c.Captured))
	copy(out, c.Captured)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// BinSeconds returns the bin width the generator aligns its clock to.
func (c *Collector) BinSeconds() uint32 { return c.binSeconds }

// Add captures a copy of r.
func (c *Collector) Add(r *flow.Record) error {
	c.Captured = append(c.Captured, *r)
	return nil
}

// Flush is a no-op: capture is in memory.
func (c *Collector) Flush() error { return nil }
