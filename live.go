package rootcause

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alarmdb"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/stream"
)

// LiveConfig configures the live streaming pipeline (WithLive).
type LiveConfig struct {
	// Detectors names the online detectors fed per record (registry
	// names that implement the stream.Online contract). Empty selects
	// the built-ins: "cusum" and "sketch".
	Detectors []string
	// SealLagSeconds delays sealing a bin this long past its end so
	// slightly out-of-order records still land in it (default 0).
	SealLagSeconds uint32
	// DisableAutoExtract turns the watcher's job auto-submission off:
	// bins still seal and alarms still store and correlate, but no
	// extraction jobs are submitted — observation without the mining
	// cost.
	DisableAutoExtract bool
}

// WithLive makes Create/Open start the live streaming pipeline on the
// assembled system: Ingest/TryIngest accept records continuously, bins
// seal and index themselves as the stream clock crosses boundaries,
// online detectors raise alarms mid-bin, and a watcher correlates each
// sealed bin's alarms into incidents and auto-submits one extraction
// job per incident — the packets-to-incidents loop with no human in the
// path. Construction option.
func WithLive(cfg LiveConfig) Option {
	return func(o *callOptions) { o.live = &cfg }
}

// ErrNotLive rejects streaming calls on a system built without WithLive.
var ErrNotLive = errors.New("rootcause: system is not in live mode (use WithLive)")

// Stream event types (StreamEvent.Type).
const (
	// StreamEventIncident announces a newly opened incident whose
	// extraction job was just auto-submitted.
	StreamEventIncident = "incident"
	// StreamEventExtracted carries a finished auto-extraction: the
	// incident and its ranked itemsets.
	StreamEventExtracted = "extracted"
	// StreamEventError reports a failed auto-submission or extraction.
	StreamEventError = "error"
)

// StreamEvent is one observation on the live incident feed
// (TailIncidents, rcad's /api/v1/stream/incidents SSE tail).
type StreamEvent struct {
	// Type is one of the StreamEvent* constants.
	Type string `json:"type"`
	// Time is when the event was published.
	Time time.Time `json:"time"`
	// Bin is the sealed bin that triggered the watcher pass.
	Bin Interval `json:"bin"`
	// IncidentID names the incident ("i1", "i2", ...).
	IncidentID string `json:"incident_id"`
	// Incident is the stored incident snapshot at publish time.
	Incident IncidentEntry `json:"incident"`
	// JobID is the auto-submitted extraction job.
	JobID string `json:"job_id,omitempty"`
	// Result holds the ranked itemsets of an extracted event.
	Result *Result `json:"result,omitempty"`
	// Err describes an error event.
	Err string `json:"error,omitempty"`
}

// StreamStats is the live-mode census: the pipeline's ingest counters
// plus the watcher's incident-automation counters. Surfaced by
// System.StreamStats and rcad's /api/v1/health.
type StreamStats struct {
	stream.Stats
	// WatcherBacklog is how many sealed-bin alarm batches wait for the
	// watcher (correlation + submission) to catch up.
	WatcherBacklog int `json:"watcher_backlog"`
	// AutoSubmitted counts extraction jobs the watcher submitted.
	AutoSubmitted uint64 `json:"auto_submitted"`
	// AutoExtracted counts auto-submitted jobs that finished with a
	// result.
	AutoExtracted uint64 `json:"auto_extracted"`
	// AutoFailed counts auto-submitted jobs that failed or could not be
	// submitted.
	AutoFailed uint64 `json:"auto_failed"`
}

// sealedBatch is one sealed bin's alarm delivery, queued for the watcher.
type sealedBatch struct {
	bin    Interval
	alarms []detector.Alarm
}

// liveState is the streaming machinery attached to a System by WithLive:
// the ingest pipeline plus the watcher that turns sealed-bin alarms into
// incidents and extraction jobs.
type liveState struct {
	sys  *System
	cfg  LiveConfig
	pipe *stream.Pipeline

	batches     chan sealedBatch
	watcherDone chan struct{}
	jobWG       sync.WaitGroup // in-flight auto-extraction waiters
	drainOnce   sync.Once
	drainErr    error

	autoSubmitted atomic.Uint64
	autoExtracted atomic.Uint64
	autoFailed    atomic.Uint64

	mu        sync.Mutex
	subs      map[int]chan StreamEvent
	nextSub   int
	submitted map[string]bool // incident IDs with a submitted job
	span      Interval        // union of alarm intervals seen (correlation window)
}

// startLive wires the pipeline and watcher onto the system. Called from
// assemble.
func (s *System) startLive(cfg LiveConfig) error {
	dets, err := stream.BuildDetectors(cfg.Detectors)
	if err != nil {
		return fmt.Errorf("rootcause: live detectors: %w", err)
	}
	lv := &liveState{
		sys:         s,
		cfg:         cfg,
		batches:     make(chan sealedBatch, 64),
		watcherDone: make(chan struct{}),
		subs:        map[int]chan StreamEvent{},
		submitted:   map[string]bool{},
	}
	pipe, err := stream.New(stream.Config{
		Store:     s.store,
		Detectors: dets,
		SealLag:   cfg.SealLagSeconds,
		OnSealed:  lv.onSealed,
	})
	if err != nil {
		return err
	}
	lv.pipe = pipe
	s.live = lv
	go lv.watch()
	return nil
}

// Live reports whether the system runs the streaming pipeline.
func (s *System) Live() bool { return s.live != nil }

// Ingest submits one record to the live pipeline, blocking while the
// ingest buffer is full (backpressure; ctx bounds the wait). The record
// lands in the store, feeds the online detectors, and advances the
// stream clock — sealing any bin the clock leaves behind.
func (s *System) Ingest(ctx context.Context, r *Record) error {
	if s.live == nil {
		return ErrNotLive
	}
	return s.live.pipe.Ingest(ctx, r)
}

// TryIngest is the non-blocking Ingest: a full buffer drops the record,
// counts the drop (StreamStats.Dropped), and returns false.
func (s *System) TryIngest(r *Record) bool {
	if s.live == nil {
		return false
	}
	return s.live.pipe.TryIngest(r)
}

// StreamStats returns the live-mode census, nil when not in live mode.
func (s *System) StreamStats() *StreamStats {
	lv := s.live
	if lv == nil {
		return nil
	}
	return &StreamStats{
		Stats:          lv.pipe.Stats(),
		WatcherBacklog: len(lv.batches),
		AutoSubmitted:  lv.autoSubmitted.Load(),
		AutoExtracted:  lv.autoExtracted.Load(),
		AutoFailed:     lv.autoFailed.Load(),
	}
}

// TailIncidents subscribes to the live incident feed: one StreamEvent
// when an incident opens (job submitted) and one when its extraction
// finishes, closed when the subscription is canceled or live mode
// drains. A subscriber that falls behind loses events rather than
// stalling the watcher — the feed is a tail, not a durable log (the
// alarm database is). Always call the returned cancel function.
func (s *System) TailIncidents() (<-chan StreamEvent, func(), error) {
	lv := s.live
	if lv == nil {
		return nil, nil, ErrNotLive
	}
	lv.mu.Lock()
	defer lv.mu.Unlock()
	if lv.subs == nil {
		return nil, nil, ErrNotLive // already drained
	}
	id := lv.nextSub
	lv.nextSub++
	ch := make(chan StreamEvent, 64)
	lv.subs[id] = ch
	cancel := func() {
		lv.mu.Lock()
		defer lv.mu.Unlock()
		if sub, ok := lv.subs[id]; ok {
			delete(lv.subs, id)
			close(sub)
		}
	}
	return ch, cancel, nil
}

// DrainLive finishes the stream: ingest stops, buffered records are
// consumed, every open bin seals, the watcher processes the remaining
// alarm batches, and in-flight auto-extractions conclude. After a drain
// the system is still fully usable batch-style; further Ingest calls
// fail with stream.ErrClosed. Idempotent; ctx bounds the wait.
func (s *System) DrainLive(ctx context.Context) error {
	lv := s.live
	if lv == nil {
		return ErrNotLive
	}
	done := make(chan struct{})
	go func() {
		lv.drainOnce.Do(lv.drain)
		close(done)
	}()
	select {
	case <-done:
		return lv.drainErr
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drain is the one-shot drain sequence.
func (lv *liveState) drain() {
	lv.drainErr = lv.pipe.Close() // seals remaining bins, delivers alarms
	close(lv.batches)             // watcher exits after the backlog
	<-lv.watcherDone
	lv.jobWG.Wait() // extraction waiters publish their terminal events
	lv.mu.Lock()
	defer lv.mu.Unlock()
	for id, ch := range lv.subs {
		delete(lv.subs, id)
		close(ch)
	}
	lv.subs = nil
}

// onSealed runs on the pipeline worker after each bin seals. The send
// blocks when the watcher backlog is full — backpressure reaches all
// the way back to producers instead of losing alarms.
func (lv *liveState) onSealed(bin flow.Interval, alarms []detector.Alarm) {
	lv.batches <- sealedBatch{bin: bin, alarms: alarms}
}

// watch is the watcher loop: each sealed bin's alarms are stored,
// correlated into incidents, and new incidents auto-submitted for
// extraction.
func (lv *liveState) watch() {
	defer close(lv.watcherDone)
	for b := range lv.batches {
		lv.processSealed(b)
	}
}

// processSealed handles one sealed bin's alarm batch.
func (lv *liveState) processSealed(b sealedBatch) {
	if len(b.alarms) == 0 {
		return
	}
	lv.sys.alarms.InsertAll(b.alarms)
	span := lv.extendSpan(b.alarms)
	sum, err := lv.sys.Correlate(context.Background(), span)
	if err != nil {
		lv.autoFailed.Add(1)
		lv.publish(StreamEvent{Type: StreamEventError, Bin: b.bin, Err: err.Error()})
		return
	}
	if lv.cfg.DisableAutoExtract {
		return
	}
	for _, id := range sum.IncidentIDs {
		lv.maybeSubmit(b.bin, id)
	}
}

// extendSpan grows the watcher's correlation window to cover the new
// alarms and returns it. Re-correlating the whole window every seal
// keeps incident assembly identical to a batch Correlate over the same
// alarms — reconciliation is idempotent, so stable incidents keep their
// IDs and growing ones absorb their members.
func (lv *liveState) extendSpan(alarms []detector.Alarm) Interval {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	for i := range alarms {
		iv := alarms[i].Interval
		if lv.span.Start == 0 && lv.span.End == 0 {
			lv.span = iv
			continue
		}
		lv.span.Start = min(lv.span.Start, iv.Start)
		lv.span.End = max(lv.span.End, iv.End)
	}
	return lv.span
}

// maybeSubmit submits the incident's extraction job unless it already
// has one (or is no longer open — merged incidents extract through
// their absorbing incident).
func (lv *liveState) maybeSubmit(bin Interval, id string) {
	entry, err := lv.sys.alarms.Incident(id)
	if err != nil || entry.Status != alarmdb.IncidentOpen {
		return
	}
	lv.mu.Lock()
	if lv.submitted[id] {
		lv.mu.Unlock()
		return
	}
	lv.submitted[id] = true
	lv.mu.Unlock()
	jobID, err := lv.sys.Submit(JobRequest{IncidentID: id})
	if err != nil {
		// A full queue (or any submit failure) un-marks the incident so a
		// later seal retries it instead of dropping it forever.
		lv.mu.Lock()
		lv.submitted[id] = false
		lv.mu.Unlock()
		lv.autoFailed.Add(1)
		lv.publish(StreamEvent{Type: StreamEventError, Bin: bin, IncidentID: id, Incident: entry, Err: err.Error()})
		return
	}
	lv.autoSubmitted.Add(1)
	lv.publish(StreamEvent{Type: StreamEventIncident, Bin: bin, IncidentID: id, Incident: entry, JobID: jobID})
	lv.jobWG.Add(1)
	go lv.awaitJob(bin, id, jobID)
}

// awaitJob waits for one auto-extraction to conclude and publishes the
// terminal event.
func (lv *liveState) awaitJob(bin Interval, incidentID, jobID string) {
	defer lv.jobWG.Done()
	res, err := lv.sys.Wait(context.Background(), jobID)
	entry, _ := lv.sys.alarms.Incident(incidentID)
	if err != nil {
		// A later seal can grow the incident's alarm set before this job
		// ran: correlation re-keys the membership under a fresh incident
		// and marks this one merged, so the job fails by design. The
		// absorbing incident got its own submission on the pass that
		// created it — this job was superseded, not lost.
		if entry.Status == alarmdb.IncidentMerged {
			return
		}
		lv.autoFailed.Add(1)
		lv.publish(StreamEvent{Type: StreamEventError, Bin: bin, IncidentID: incidentID, Incident: entry, JobID: jobID, Err: err.Error()})
		return
	}
	lv.autoExtracted.Add(1)
	lv.publish(StreamEvent{Type: StreamEventExtracted, Bin: bin, IncidentID: incidentID, Incident: entry, JobID: jobID, Result: res.Result})
}

// publish fans an event to every subscriber, dropping to slow ones.
func (lv *liveState) publish(ev StreamEvent) {
	ev.Time = time.Now()
	lv.mu.Lock()
	defer lv.mu.Unlock()
	for _, ch := range lv.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}
