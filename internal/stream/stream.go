// Package stream is the live ingest subsystem: records arrive one at a
// time instead of in pre-built bins, online detectors observe them as
// they pass, and measurement bins seal themselves when the stream clock
// crosses a bin boundary — converting the offline detect-then-mine
// pipeline of the paper into an always-on service.
//
// The pieces:
//
//	producers ──▶ bounded channel ──▶ Pipeline worker ──▶ nfstore (Seal per bin)
//	                                      │
//	                          online detectors (Observe)
//	                                      │
//	                         OnSealed(bin, alarms) ──▶ watcher (facade)
//
// A Pipeline owns one consumer goroutine fed by a bounded channel:
// Ingest blocks for space (backpressure, bounded by the caller's
// context), TryIngest drops instead and counts the drop. The worker
// appends each record to the store, feeds it to every online detector,
// and advances the stream clock; once the clock passes a bin's end (plus
// the configured lag for stragglers) the bin is sealed through the
// store's optional nfstore.Sealer and the detectors' closed-window
// alarms for the bin are handed to the OnSealed hook — the seam the
// facade's incident watcher consumes.
//
// Online detectors implement Online: per-record Observe plus Advance to
// force windows closed at bin boundaries and shutdown. The built-ins —
// "cusum" (change-point detection over per-window volume) and "sketch"
// (count-min heavy hitters per window) — also register ordinary batch
// factories in the detector registry, replaying stored bins through a
// fresh instance, so the same implementations serve System.Detect.
//
// # Configuration
//
// The pipeline and the two online detectors run one configuration; a
// detector tuned differently is an external Online registered under its
// own name. The pipeline's one tuning value is Config.SealLag (rcad
// -seal-lag). The fixed values and why:
//
//   - ingestBuffer = 4096: the ingest channel's capacity in records, 48
//     bytes each, so under 200 KiB. A full channel blocks Ingest and
//     drops TryIngest; Stats reports the fill as QueueLen/QueueCap.
//   - alignSeconds = 300: both detectors report an alarm against its
//     enclosing 300 s measurement bin, so extraction mines the whole
//     bin's flows, like every batch detector.
//   - cusumWindow = 60 s: five volume observations per bin, so a change
//     surfaces well before the bin seals.
//   - cusumDrift = 0.5, cusumThreshold = 6: the CUSUM slack k and the
//     decision threshold h, in baseline standard deviations. Deviations
//     below mean + k·σ never accumulate; an alarm fires when the
//     cumulative sum exceeds h·σ.
//   - cusumMinWindows = 8: the baseline warm-up; no alarm until this
//     many windows seeded the mean and variance.
//   - sketchWindow = 300 s: one bin. Counts reset at every window, and
//     shares need enough flows to mean something: sub-bin windows over
//     moderate links get lumpy (one busy client-server session can own
//     half of a minute).
//   - sketchRows × sketchCols = 4 × 2048: the counters of each count-min
//     sketch, four sketches per detector (source and destination, by
//     flows and by packets). The width is a power of two so row
//     indexing is a mask.
//   - sketchRatio = 0.25: a key owning this share of a window's flows
//     or packets alarms. It sits above the ~15% share the most popular
//     background server draws (Zipf s=1.0 over 300 servers) at bin
//     granularity.
//   - sketchMinFlows = 100: a sparser window has no meaningful shares
//     and raises nothing.
//   - sketchMaxAlarms = 4: per window and dimension, strongest share
//     first.
package stream

import (
	"context"
	"sort"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
)

// Online is an anomaly detector that consumes the stream record by
// record instead of scanning sealed bins. Implementations are NOT safe
// for concurrent use — the pipeline's single worker goroutine owns them.
type Online interface {
	detector.Detector

	// Observe accounts one record and returns any alarms whose windows
	// this observation closed (usually nil).
	Observe(r *flow.Record) []detector.Alarm

	// Advance force-closes every window ending at or before now and
	// returns the alarms those windows raised. The pipeline calls it at
	// bin seals, and with EndOfStream at shutdown so no window is left
	// dangling.
	Advance(now uint32) []detector.Alarm
}

// EndOfStream is the Advance sentinel for shutdown: it closes the one
// in-progress window and stops, instead of walking (and feeding zero
// volumes for) every empty window between the last record and the end
// of uint32 time.
const EndOfStream = ^uint32(0)

// windower tracks the current aligned time window of an online detector.
type windower struct {
	width   uint32
	cur     uint32 // current window start
	started bool
}

// stepTo makes the window containing t current, invoking closeFn once
// per completed window start (ascending) on the way. Records earlier
// than the current window (late stragglers) keep the window unchanged —
// they are accounted into the current window by the caller.
func (w *windower) stepTo(t uint32, closeFn func(start uint32)) {
	nw := t - t%w.width
	if !w.started {
		w.cur, w.started = nw, true
		return
	}
	for w.cur < nw {
		closeFn(w.cur)
		w.cur += w.width
	}
}

// advance closes every window ending at or before now; the EndOfStream
// sentinel closes exactly the in-progress window. Arithmetic is widened
// so a now near the uint32 maximum cannot overflow.
func (w *windower) advance(now uint32, closeFn func(start uint32)) {
	if !w.started {
		return
	}
	if now == EndOfStream {
		closeFn(w.cur)
		w.cur += w.width
		w.started = false
		return
	}
	for uint64(w.cur)+uint64(w.width) <= uint64(now) {
		closeFn(w.cur)
		w.cur += w.width
	}
}

// alignSeconds is the interval online alarms are widened to; the
// package doc gives the reason.
const alignSeconds = 300

// alignedInterval widens a window start to its enclosing aligned
// interval — online alarms are reported against full measurement bins so
// extraction mines the whole bin's flows, like every batch detector.
func alignedInterval(winStart uint32) flow.Interval {
	a := winStart - winStart%alignSeconds
	return flow.Interval{Start: a, End: a + alignSeconds}
}

// replayDetect adapts an online detector to the batch Detector contract:
// the span's records stream out of the store bin by bin, each bin sorted
// into clock order (segments store records in arrival order), through
// Observe, with a final Advance at the span end. The caller passes a
// fresh detector instance — replay mutates its window state.
func replayDetect(ctx context.Context, d Online, store nfstore.Engine, span flow.Interval) ([]detector.Alarm, error) {
	binSec := store.BinSeconds()
	var (
		out     []detector.Alarm
		buf     []flow.Record
		curBin  uint32
		started bool
	)
	flushBin := func() {
		sort.SliceStable(buf, func(i, j int) bool { return buf[i].Start < buf[j].Start })
		for i := range buf {
			out = append(out, d.Observe(&buf[i])...)
		}
		buf = buf[:0]
	}
	err := store.Query(ctx, span, nil, func(r *flow.Record) error {
		b := r.Start - r.Start%binSec
		if !started {
			curBin, started = b, true
		}
		if b != curBin {
			flushBin()
			curBin = b
		}
		buf = append(buf, *r)
		return nil
	})
	if err != nil {
		return nil, err
	}
	flushBin()
	out = append(out, d.Advance(span.End)...)
	return out, nil
}
