package rootcause_test

import (
	"context"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	rootcause "repro"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/stream"
)

// replayScenario instantiates a catalog scenario into an in-memory
// collector and returns its records in stream-clock order plus the
// ground truth — the live-ingest substitute for Scenario.Generate
// writing straight into the system's store.
func replayScenario(t *testing.T, name string, seed uint64) ([]rootcause.Record, *gen.Truth) {
	t.Helper()
	def, ok := gen.Lookup(name)
	if !ok {
		t.Fatalf("scenario %q not in catalog", name)
	}
	col := stream.NewCollector(300)
	truth, err := def.Scenario(seed).Generate(col)
	if err != nil {
		t.Fatal(err)
	}
	return col.Sorted(), truth
}

// TestLiveEndToEndParity is the closed-loop property test of the
// streaming subsystem: a catalog DDoS scenario replayed record by record
// through live ingest — with zero manual Detect/Correlate/Extract
// calls — must seal its bins, raise online alarms, auto-correlate them
// into an incident, auto-extract it, and the top-ranked itemset of that
// extraction must match the batch ground truth (ScoreTruth rank 1).
func TestLiveEndToEndParity(t *testing.T) {
	recs, truth := replayScenario(t, "ddos-syn", 42)

	dir := t.TempDir()
	sys, err := rootcause.Create(rootcause.Config{
		StoreDir:    filepath.Join(dir, "flows"),
		AlarmDBPath: filepath.Join(dir, "alarms.json"),
	}, rootcause.WithLive(rootcause.LiveConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if !sys.Live() {
		t.Fatal("WithLive system does not report Live()")
	}

	events, cancel, err := sys.TailIncidents()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var (
		collected []rootcause.StreamEvent
		tailDone  = make(chan struct{})
	)
	go func() {
		defer close(tailDone)
		for ev := range events {
			collected = append(collected, ev)
		}
	}()

	ctx := context.Background()
	for i := range recs {
		if err := sys.Ingest(ctx, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.DrainLive(ctx); err != nil {
		t.Fatal(err)
	}
	<-tailDone // the feed closes at drain, after the terminal events

	st := sys.StreamStats()
	if st == nil {
		t.Fatal("StreamStats is nil in live mode")
	}
	if st.Ingested != uint64(len(recs)) || st.Dropped != 0 || st.AddErrors != 0 {
		t.Fatalf("ingest census = %+v, want %d/0/0", st.Stats, len(recs))
	}
	if st.SealedBins < 12 {
		t.Fatalf("sealed %d bins, want >= 12", st.SealedBins)
	}
	if st.Alarms == 0 {
		t.Fatal("online detectors raised no alarms")
	}
	if st.AutoSubmitted == 0 || st.AutoExtracted == 0 {
		t.Fatalf("automation census = submitted %d extracted %d failed %d",
			st.AutoSubmitted, st.AutoExtracted, st.AutoFailed)
	}

	// The store is fully sealed: batch queries see every replayed record.
	flows, pkts, _, err := sys.Store().Count(ctx, truth.Span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != uint64(len(recs)) {
		t.Fatalf("store holds %d flows after drain, want %d", flows, len(recs))
	}
	if pkts == 0 {
		t.Fatal("store holds no packets")
	}

	// The feed carried the incident lifecycle: at least one incident
	// opened, and the extraction covering the injected flood concluded.
	// (Other incidents may extract too — online detection over noisy
	// background is allowed its incidentals; the property is that the true
	// anomaly's incident is among them with the right root cause.)
	var extracted *rootcause.StreamEvent
	sawIncident := false
	for i := range collected {
		switch collected[i].Type {
		case rootcause.StreamEventIncident:
			sawIncident = true
			if collected[i].JobID == "" || collected[i].IncidentID == "" {
				t.Fatalf("incident event without job/incident ID: %+v", collected[i])
			}
		case rootcause.StreamEventExtracted:
			if collected[i].Incident.Incident.Interval.Overlaps(truth.Entries[0].Interval) {
				extracted = &collected[i]
			}
		case rootcause.StreamEventError:
			t.Fatalf("error event on the feed: %s", collected[i].Err)
		}
	}
	if !sawIncident || extracted == nil {
		t.Fatalf("feed carried %d events, missing incident/extraction over the flood interval", len(collected))
	}
	if extracted.Result == nil || len(extracted.Result.Itemsets) == 0 {
		t.Fatal("extracted event carries no itemsets")
	}

	// Parity with batch ground truth: scored over the incident's
	// interval, the top-ranked itemset is attributed to the injected
	// flood — the paper's Table-1 outcome with no human in the path.
	ts, err := eval.ScoreTruth(sys.Store(), extracted.Incident.Incident.Interval,
		extracted.Result, truth, eval.DefaultScoreOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ts.Rank != 1 {
		t.Fatalf("true cause ranked %d (0 = absent), want 1; itemsets:\n%s",
			ts.Rank, extracted.Result.Table())
	}

	// The incident record reflects the automation.
	inc, err := sys.Incident(extracted.IncidentID)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Status != rootcause.IncidentExtracted {
		t.Fatalf("incident status after auto-extraction = %q", inc.Status)
	}

	// A drained system rejects further ingest but stays usable for batch
	// reads; DrainLive is idempotent.
	if err := sys.Ingest(ctx, &recs[0]); !errors.Is(err, stream.ErrClosed) {
		t.Fatalf("post-drain Ingest err = %v, want stream.ErrClosed", err)
	}
	if err := sys.DrainLive(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.TailIncidents(); !errors.Is(err, rootcause.ErrNotLive) {
		t.Fatalf("post-drain TailIncidents err = %v, want ErrNotLive", err)
	}
}

// TestLiveRequiresWithLive pins the batch-mode rejections.
func TestLiveRequiresWithLive(t *testing.T) {
	sys, err := rootcause.Create(rootcause.Config{
		StoreDir: filepath.Join(t.TempDir(), "flows"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if sys.Live() {
		t.Fatal("batch system reports Live()")
	}
	r := rootcause.Record{Start: 1, Proto: flow.ProtoTCP, Packets: 1, Bytes: 40}
	if err := sys.Ingest(context.Background(), &r); !errors.Is(err, rootcause.ErrNotLive) {
		t.Fatalf("Ingest err = %v, want ErrNotLive", err)
	}
	if sys.TryIngest(&r) {
		t.Fatal("TryIngest accepted a record on a batch system")
	}
	if _, _, err := sys.TailIncidents(); !errors.Is(err, rootcause.ErrNotLive) {
		t.Fatalf("TailIncidents err = %v, want ErrNotLive", err)
	}
	if err := sys.DrainLive(context.Background()); !errors.Is(err, rootcause.ErrNotLive) {
		t.Fatalf("DrainLive err = %v, want ErrNotLive", err)
	}
	if sys.StreamStats() != nil {
		t.Fatal("StreamStats non-nil on a batch system")
	}
	if _, err := rootcause.Create(rootcause.Config{
		StoreDir: filepath.Join(t.TempDir(), "flows2"),
	}, rootcause.WithLive(rootcause.LiveConfig{Detectors: []string{"netreflex"}})); err == nil {
		t.Fatal("batch-only detector accepted for live mode")
	}
}

// TestLiveSoakConcurrent is the -race soak: several producers ingest
// concurrently while readers hammer the query surface mid-seal, then a
// drain races a late producer. The assertions are conservation laws —
// every record is either ingested or dropped, and the sealed store holds
// exactly the ingested ones.
func TestLiveSoakConcurrent(t *testing.T) {
	sys, err := rootcause.Create(rootcause.Config{
		StoreDir: filepath.Join(t.TempDir(), "flows"),
	}, rootcause.WithLive(rootcause.LiveConfig{
		// Observation only: extraction latency is not what this test
		// shakes out, data races are.
		DisableAutoExtract: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()

	const (
		producers = 4
		perProd   = 3000
	)
	span := rootcause.Interval{Start: 0, End: 3000}
	ctx := context.Background()

	var wg sync.WaitGroup
	stopReads := make(chan struct{})
	// Readers: Count and Records across the whole span while bins seal
	// underneath them.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				if _, _, _, err := sys.Store().Count(ctx, span, nil); err != nil {
					t.Errorf("concurrent Count: %v", err)
					return
				}
				if _, err := sys.Flows(ctx, span, "proto tcp"); err != nil {
					t.Errorf("concurrent Flows: %v", err)
					return
				}
			}
		}()
	}
	// Producers: interleaved clocks, so seals happen while others still
	// write; a mix of blocking and non-blocking ingest.
	var prodWG sync.WaitGroup
	for p := 0; p < producers; p++ {
		prodWG.Add(1)
		go func(p int) {
			defer prodWG.Done()
			for i := 0; i < perProd; i++ {
				r := rootcause.Record{
					Start:   uint32(i), // producers sweep the span together
					SrcIP:   flow.IPFromOctets(10, byte(p), byte(i>>8), byte(i)),
					DstIP:   flow.IPFromOctets(192, 0, 2, byte(i%7)),
					SrcPort: uint16(1024 + i%50000),
					DstPort: 443,
					Proto:   flow.ProtoTCP,
					Router:  uint16(p),
					Packets: 2,
					Bytes:   80,
				}
				if p%2 == 0 {
					if err := sys.Ingest(ctx, &r); err != nil {
						t.Errorf("producer %d: %v", p, err)
						return
					}
				} else {
					sys.TryIngest(&r) // drops are legal, just counted
				}
			}
		}(p)
	}
	prodWG.Wait()
	close(stopReads)
	wg.Wait()
	if err := sys.DrainLive(ctx); err != nil {
		t.Fatal(err)
	}

	st := sys.StreamStats()
	if st.Ingested+st.Dropped != producers*perProd {
		t.Fatalf("conservation violated: ingested %d + dropped %d != %d",
			st.Ingested, st.Dropped, producers*perProd)
	}
	if st.Ingested < 2*perProd {
		t.Fatalf("blocking producers lost records: ingested %d < %d", st.Ingested, 2*perProd)
	}
	flows, _, _, err := sys.Store().Count(ctx, span, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != st.Ingested {
		t.Fatalf("store holds %d flows, census says %d", flows, st.Ingested)
	}
	if len(st.OpenBins) != 0 {
		t.Fatalf("open bins after drain: %v", st.OpenBins)
	}
}

// TestLiveSubscriberLag pins the tail contract: a subscriber that never
// reads loses events instead of stalling the watcher, and the drain
// still completes promptly.
func TestLiveSubscriberLag(t *testing.T) {
	recs, _ := replayScenario(t, "ddos-syn", 7)
	sys, err := rootcause.Create(rootcause.Config{
		StoreDir: filepath.Join(t.TempDir(), "flows"),
	}, rootcause.WithLive(rootcause.LiveConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// Subscribe and never read.
	_, cancel, err := sys.TailIncidents()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	ctx := context.Background()
	for i := range recs {
		if err := sys.Ingest(ctx, &recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	dctx, dcancel := context.WithTimeout(ctx, 2*time.Minute)
	defer dcancel()
	if err := sys.DrainLive(dctx); err != nil {
		t.Fatalf("drain with a stuck subscriber: %v", err)
	}
	if st := sys.StreamStats(); st.AutoSubmitted == 0 {
		t.Fatal("no incident auto-submitted")
	}
}
