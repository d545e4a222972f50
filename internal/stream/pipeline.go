package stream

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
)

// ingestBuffer is the ingest channel capacity in records; the package
// doc gives the reason.
const ingestBuffer = 4096

// ErrClosed rejects ingest into a pipeline that has shut down.
var ErrClosed = errors.New("stream: pipeline closed")

// Config assembles a Pipeline.
type Config struct {
	// Store receives every ingested record. When it also implements
	// nfstore.Sealer (single and local sharded stores do), bins are
	// sealed individually as the clock passes them; otherwise each bin
	// boundary degrades to a whole-store Flush.
	Store nfstore.Engine
	// Detectors are the online detectors fed per record. The pipeline
	// worker owns them exclusively.
	Detectors []Online
	// SealLag delays sealing this many seconds past a bin's end so
	// slightly out-of-order records still land in their bin (default 0:
	// seal as soon as the clock crosses the boundary).
	SealLag uint32
	// OnSealed, when set, runs on the worker goroutine after each bin
	// seals, with the bin interval and the online alarms whose windows
	// closed inside it — the watcher seam. Keep it fast or hand off.
	OnSealed func(bin flow.Interval, alarms []detector.Alarm)
}

// Stats is a point-in-time census of the pipeline, surfaced through the
// facade and rcad's /api/v1/health.
type Stats struct {
	// Ingested counts records accepted and appended to the store.
	Ingested uint64 `json:"ingested"`
	// Dropped counts TryIngest rejections on a full buffer.
	Dropped uint64 `json:"dropped"`
	// AddErrors counts records the store rejected (validation).
	AddErrors uint64 `json:"add_errors"`
	// Alarms counts online-detector alarms delivered with sealed bins.
	Alarms uint64 `json:"alarms"`
	// SealedBins counts bins sealed since start.
	SealedBins uint64 `json:"sealed_bins"`
	// SealErrors counts failed seal/flush attempts.
	SealErrors uint64 `json:"seal_errors"`
	// OpenBins lists bins with ingested records not yet sealed, ascending.
	OpenBins []uint32 `json:"open_bins,omitempty"`
	// Clock is the stream clock — the latest record start seen.
	Clock uint32 `json:"clock"`
	// QueueLen/QueueCap describe the ingest buffer's current pressure.
	QueueLen int `json:"queue_len"`
	QueueCap int `json:"queue_cap"`
	// RatePerSec is the mean ingest rate since the first record.
	RatePerSec float64 `json:"rate_per_sec"`
}

// Pipeline is the live ingest loop: a bounded channel in front of one
// worker goroutine that stores records, feeds the online detectors,
// advances the stream clock, and seals bins behind it. Construction
// starts the worker; Close drains and stops it.
type Pipeline struct {
	cfg        Config
	binSeconds uint32
	sealer     nfstore.Sealer // nil: store cannot seal, Flush instead

	in   chan flow.Record
	done chan struct{}

	closeMu sync.RWMutex // guards closed against in-flight sends
	closed  bool

	ingested   atomic.Uint64
	dropped    atomic.Uint64
	addErrs    atomic.Uint64
	alarmCount atomic.Uint64
	sealedBins atomic.Uint64
	sealErrs   atomic.Uint64
	clock      atomic.Uint32
	firstNanos atomic.Int64 // wall time of the first accepted record

	binMu    sync.Mutex
	openBins map[uint32]bool

	pending []detector.Alarm // worker-owned: alarms awaiting their bin's seal
}

// New assembles and starts a pipeline.
func New(cfg Config) (*Pipeline, error) {
	if cfg.Store == nil {
		return nil, errors.New("stream: Config.Store is required")
	}
	p := &Pipeline{
		cfg:        cfg,
		binSeconds: cfg.Store.BinSeconds(),
		in:         make(chan flow.Record, ingestBuffer),
		done:       make(chan struct{}),
		openBins:   map[uint32]bool{},
	}
	p.sealer, _ = cfg.Store.(nfstore.Sealer)
	go p.run()
	return p, nil
}

// Ingest submits one record, blocking while the buffer is full — the
// backpressure path: a slow consumer propagates delay to producers
// instead of losing data. ctx bounds the wait.
func (p *Pipeline) Ingest(ctx context.Context, r *flow.Record) error {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.in <- *r:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryIngest submits one record without blocking: a full buffer drops the
// record, counts the drop, and returns false — the load-shedding path
// for producers that must never stall (a capture loop).
func (p *Pipeline) TryIngest(r *flow.Record) bool {
	p.closeMu.RLock()
	defer p.closeMu.RUnlock()
	if p.closed {
		p.dropped.Add(1)
		return false
	}
	select {
	case p.in <- *r:
		return true
	default:
		p.dropped.Add(1)
		return false
	}
}

// Close stops ingest, drains the buffer, closes every open detector
// window, seals every open bin (delivering their alarms), and waits for
// the worker to exit. Idempotent.
func (p *Pipeline) Close() error {
	p.closeMu.Lock()
	if !p.closed {
		p.closed = true
		close(p.in)
	}
	p.closeMu.Unlock()
	<-p.done
	return nil
}

// Stats returns the current census.
func (p *Pipeline) Stats() Stats {
	st := Stats{
		Ingested:   p.ingested.Load(),
		Dropped:    p.dropped.Load(),
		AddErrors:  p.addErrs.Load(),
		Alarms:     p.alarmCount.Load(),
		SealedBins: p.sealedBins.Load(),
		SealErrors: p.sealErrs.Load(),
		Clock:      p.clock.Load(),
		QueueLen:   len(p.in),
		QueueCap:   cap(p.in),
	}
	p.binMu.Lock()
	for b := range p.openBins {
		st.OpenBins = append(st.OpenBins, b)
	}
	p.binMu.Unlock()
	sort.Slice(st.OpenBins, func(i, j int) bool { return st.OpenBins[i] < st.OpenBins[j] })
	if first := p.firstNanos.Load(); first > 0 && st.Ingested > 0 {
		if secs := time.Since(time.Unix(0, first)).Seconds(); secs > 0 {
			st.RatePerSec = float64(st.Ingested) / secs
		}
	}
	return st
}

// run is the worker loop.
func (p *Pipeline) run() {
	defer close(p.done)
	for r := range p.in {
		p.consume(&r)
	}
	p.finish()
}

// consume handles one record: store, observe, advance the clock, seal
// bins the clock has passed.
func (p *Pipeline) consume(r *flow.Record) {
	if err := p.cfg.Store.Add(r); err != nil {
		p.addErrs.Add(1)
		return
	}
	if p.ingested.Add(1) == 1 {
		p.firstNanos.Store(time.Now().UnixNano())
	}
	for _, d := range p.cfg.Detectors {
		if as := d.Observe(r); len(as) > 0 {
			p.pending = append(p.pending, as...)
		}
	}
	bin := r.Start - r.Start%p.binSeconds
	p.binMu.Lock()
	p.openBins[bin] = true
	p.binMu.Unlock()
	if r.Start > p.clock.Load() {
		p.clock.Store(r.Start)
	}
	p.sealBehind(p.clock.Load())
}

// sealBehind seals every open bin whose grace window the clock has fully
// passed, oldest first.
func (p *Pipeline) sealBehind(now uint32) {
	var ready []uint32
	p.binMu.Lock()
	for b := range p.openBins {
		if uint64(b)+uint64(p.binSeconds)+uint64(p.cfg.SealLag) <= uint64(now) {
			ready = append(ready, b)
		}
	}
	for _, b := range ready {
		delete(p.openBins, b)
	}
	p.binMu.Unlock()
	sort.Slice(ready, func(i, j int) bool { return ready[i] < ready[j] })
	for _, b := range ready {
		p.sealBin(b)
	}
}

// sealBin commits one bin: detectors close windows up to the bin end,
// the store seals the segment (or flushes), and the bin's alarms go to
// the OnSealed hook.
func (p *Pipeline) sealBin(b uint32) {
	iv := flow.Interval{Start: b, End: b + p.binSeconds}
	for _, d := range p.cfg.Detectors {
		if as := d.Advance(iv.End); len(as) > 0 {
			p.pending = append(p.pending, as...)
		}
	}
	var err error
	if p.sealer != nil {
		err = p.sealer.Seal(b)
	} else {
		err = p.cfg.Store.Flush()
	}
	if err != nil {
		p.sealErrs.Add(1)
	}
	p.sealedBins.Add(1)
	p.deliver(iv, iv.End)
}

// deliver hands every pending alarm concluded by upTo to OnSealed under
// the given bin interval, keeping later ones pending.
func (p *Pipeline) deliver(bin flow.Interval, upTo uint32) {
	var ship, keep []detector.Alarm
	for _, a := range p.pending {
		if a.Interval.End <= upTo {
			ship = append(ship, a)
		} else {
			keep = append(keep, a)
		}
	}
	p.pending = keep
	if len(ship) == 0 {
		return
	}
	p.alarmCount.Add(uint64(len(ship)))
	if p.cfg.OnSealed != nil {
		p.cfg.OnSealed(bin, ship)
	}
}

// finish runs at shutdown: seal every remaining bin in order, then force
// the detectors' last windows closed and deliver what falls out.
func (p *Pipeline) finish() {
	p.binMu.Lock()
	var bins []uint32
	for b := range p.openBins {
		bins = append(bins, b)
	}
	clear(p.openBins)
	p.binMu.Unlock()
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	for _, b := range bins {
		p.sealBin(b)
	}
	var last flow.Interval
	if n := len(bins); n > 0 {
		last = flow.Interval{Start: bins[n-1], End: bins[n-1] + p.binSeconds}
	}
	for _, d := range p.cfg.Detectors {
		if as := d.Advance(EndOfStream); len(as) > 0 {
			p.pending = append(p.pending, as...)
		}
	}
	p.deliver(last, EndOfStream)
}

// BuildDetectors resolves online detector names through the detector
// registry, rejecting registered detectors that are not stream-capable.
// An empty list selects the built-in online set (cusum, sketch).
func BuildDetectors(names []string) ([]Online, error) {
	if len(names) == 0 {
		names = []string{CUSUMName, SketchName}
	}
	out := make([]Online, 0, len(names))
	for _, name := range names {
		d, err := detector.New(name)
		if err != nil {
			return nil, err
		}
		od, ok := d.(Online)
		if !ok {
			return nil, fmt.Errorf("stream: detector %q is not an online detector", name)
		}
		out = append(out, od)
	}
	return out, nil
}
