package stream

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
)

// sealLog wraps a store and records the start of every bin the pipeline
// seals through it, under a lock: Seal runs on the pipeline worker while
// the test goroutine reads.
type sealLog struct {
	*nfstore.Store
	mu   sync.Mutex
	bins []uint32
}

func (sl *sealLog) Seal(t uint32) error {
	if err := sl.Store.Seal(t); err != nil {
		return err
	}
	sl.mu.Lock()
	sl.bins = append(sl.bins, t-t%sl.BinSeconds())
	sl.mu.Unlock()
	return nil
}

func (sl *sealLog) snapshot() []uint32 {
	sl.mu.Lock()
	defer sl.mu.Unlock()
	return append([]uint32(nil), sl.bins...)
}

// sealRecorder collects OnSealed alarm deliveries.
type sealRecorder struct {
	mu     sync.Mutex
	bins   []flow.Interval
	alarms [][]detector.Alarm
}

func (sr *sealRecorder) hook(bin flow.Interval, alarms []detector.Alarm) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	sr.bins = append(sr.bins, bin)
	sr.alarms = append(sr.alarms, alarms)
}

// waitIngested blocks until the pipeline worker has consumed n records.
func waitIngested(t *testing.T, p *Pipeline, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.Stats().Ingested < n {
		if time.Now().After(deadline) {
			t.Fatalf("worker stuck at %d/%d records", p.Stats().Ingested, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineSealsBehindClock drives records through three bins and
// pins the sealing contract: a bin seals (durable, Seal called)
// once the clock passes its end, and Close seals whatever remains.
func TestPipelineSealsBehindClock(t *testing.T) {
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	sl := &sealLog{Store: store}
	p, err := New(Config{Store: sl})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	for _, start := range []uint32{10, 100, 310, 320, 615} {
		r := rec(start, 1, 1, 2)
		if err := p.Ingest(ctx, &r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Bins 0 and 300 sealed when the clock crossed them; 600 at Close.
	if got := sl.snapshot(); len(got) != 3 || got[0] != 0 || got[1] != 300 || got[2] != 600 {
		t.Fatalf("store sealed %v, want [0 300 600]", got)
	}
	st := p.Stats()
	if st.Ingested != 5 || st.Dropped != 0 || st.SealedBins != 3 || len(st.OpenBins) != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Clock != 615 {
		t.Fatalf("clock = %d, want 615", st.Clock)
	}

	// Everything is durable without any explicit Flush.
	recs, err := store.Records(ctx, flow.Interval{Start: 0, End: 900}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("store holds %d records, want 5", len(recs))
	}

	// The pipeline rejects ingest after Close.
	r := rec(700, 1, 1, 2)
	if err := p.Ingest(ctx, &r); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Ingest err = %v, want ErrClosed", err)
	}
	if p.TryIngest(&r) {
		t.Fatal("post-close TryIngest accepted a record")
	}
	if got := p.Stats().Dropped; got != 1 {
		t.Fatalf("post-close TryIngest counted %d drops, want 1", got)
	}
}

// TestPipelineSealLag pins the straggler grace: with SealLag 60 a bin
// only seals once the clock is 60 s past its end, so slightly late
// records still land in their (open) bin.
func TestPipelineSealLag(t *testing.T) {
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sl := &sealLog{Store: store}
	p, err := New(Config{Store: sl, SealLag: 60})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ingest := func(start uint32) {
		r := rec(start, 1, 1, 2)
		if err := p.Ingest(ctx, &r); err != nil {
			t.Fatal(err)
		}
	}
	ingest(10)
	ingest(330) // clock 330 < 300+60: bin 0 stays open
	ingest(290) // straggler lands in the still-open bin 0
	waitIngested(t, p, 3)
	if got := sl.snapshot(); len(got) != 0 {
		t.Fatalf("bins sealed during the grace window: %v", got)
	}
	ingest(360) // clock 360 >= 360: bin 0 seals now
	waitIngested(t, p, 4)
	if got := sl.snapshot(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("sealed %v after the grace expired, want [0]", got)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := store.Records(ctx, flow.Interval{Start: 0, End: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("bin 0 holds %d records, want 2 (incl. the straggler)", len(recs))
	}
}

// blockingStore wraps a real store so Add blocks until released — the
// lever for making backpressure deterministic.
type blockingStore struct {
	nfstore.Engine
	entered chan struct{} // closed when the first Add is reached
	release chan struct{} // Adds wait on this
	once    sync.Once
}

func (b *blockingStore) Add(r *flow.Record) error {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return b.Engine.Add(r)
}

// TestPipelineBackpressure pins the two producer paths against a full
// buffer: with the worker stuck in Add and all ingestBuffer slots
// filled, TryIngest drops and counts, Ingest blocks until its context
// cancels.
func TestPipelineBackpressure(t *testing.T) {
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	bs := &blockingStore{
		Engine:  store,
		entered: make(chan struct{}),
		release: make(chan struct{}),
	}
	p, err := New(Config{Store: bs})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	r1 := rec(10, 1, 1, 2)
	if err := p.Ingest(ctx, &r1); err != nil {
		t.Fatal(err)
	}
	<-bs.entered // the worker is now stuck inside Add
	r2 := rec(20, 1, 1, 2)
	for i := 0; i < ingestBuffer; i++ { // fills every buffer slot
		if err := p.Ingest(ctx, &r2); err != nil {
			t.Fatal(err)
		}
	}
	if st := p.Stats(); st.QueueLen != ingestBuffer || st.QueueCap != ingestBuffer {
		t.Fatalf("queue %d/%d, want %d/%d", st.QueueLen, st.QueueCap, ingestBuffer, ingestBuffer)
	}
	r3 := rec(30, 1, 1, 2)
	if p.TryIngest(&r3) {
		t.Fatal("TryIngest succeeded on a full buffer")
	}
	if got := p.Stats().Dropped; got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := p.Ingest(cctx, &r3); !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked Ingest err = %v, want context.Canceled", err)
	}
	close(bs.release)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Ingested; got != 1+ingestBuffer {
		t.Fatalf("ingested = %d, want %d", got, 1+ingestBuffer)
	}
}

// TestPipelineDeliversOnlineAlarms runs the pipeline with a real sketch
// detector over a flood and pins that the alarms arrive through OnSealed
// attached to their bin.
func TestPipelineDeliversOnlineAlarms(t *testing.T) {
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	dets, err := BuildDetectors([]string{SketchName})
	if err != nil {
		t.Fatal(err)
	}
	var sr sealRecorder
	p, err := New(Config{Store: store, Detectors: dets, OnSealed: sr.hook})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Bin 0: a fan-in flood — every record targets one victim dst, 400
	// flows in the bin's one sketch window, clear of the sketchMinFlows
	// gate.
	for i := 0; i < 400; i++ {
		r := rec(uint32(i/4), byte(i%200), 250, 2)
		if err := p.Ingest(ctx, &r); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sr.bins) == 0 {
		t.Fatal("no sealed-bin delivery")
	}
	var got []detector.Alarm
	for _, batch := range sr.alarms {
		got = append(got, batch...)
	}
	if len(got) == 0 {
		t.Fatal("flood raised no online alarms")
	}
	for _, a := range got {
		if a.Detector != SketchName || a.Kind != detector.KindDoS {
			t.Fatalf("unexpected alarm %+v", a)
		}
		if a.Interval != (flow.Interval{Start: 0, End: 300}) {
			t.Fatalf("alarm interval %v, want the sealed bin", a.Interval)
		}
	}
	if st := p.Stats(); st.Alarms != uint64(len(got)) {
		t.Fatalf("stats.Alarms = %d, want %d", st.Alarms, len(got))
	}
}

// TestOnlineBatchParity pins that an online detector replayed through
// its batch Detect over the sealed store reproduces the live alarm
// sequence exactly, given a clock-ordered stream.
func TestOnlineBatchParity(t *testing.T) {
	store, err := nfstore.CreateFormat(t.TempDir(), 300, nfstore.DefaultSegmentFormat)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	sk, live := NewSketch(), NewSketch()
	var liveAlarms []detector.Alarm
	// 400 clock-ordered fan-in flows over bin 0 clear sketchMinFlows.
	for i := 0; i < 400; i++ {
		r := rec(uint32(i*3/4), byte(i%200), 250, 2)
		if err := store.Add(&r); err != nil {
			t.Fatal(err)
		}
		liveAlarms = append(liveAlarms, live.Observe(&r)...)
	}
	liveAlarms = append(liveAlarms, live.Advance(300)...)
	if err := store.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(liveAlarms) == 0 {
		t.Fatal("live pass raised no alarms")
	}
	batch, err := sk.Detect(context.Background(), store, flow.Interval{Start: 0, End: 300})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(liveAlarms) {
		t.Fatalf("batch replay found %d alarms, live %d", len(batch), len(liveAlarms))
	}
	for i := range batch {
		if batch[i].Kind != liveAlarms[i].Kind || batch[i].Interval != liveAlarms[i].Interval ||
			batch[i].Score != liveAlarms[i].Score || len(batch[i].Meta) != 1 ||
			batch[i].Meta[0] != liveAlarms[i].Meta[0] {
			t.Fatalf("alarm %d differs: live %+v batch %+v", i, liveAlarms[i], batch[i])
		}
	}
}
