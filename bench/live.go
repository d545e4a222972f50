package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	rootcause "repro"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
	"repro/internal/stream"
)

// Frozen live-replay sizes (scale 1). 42k flows a bin keeps one heavy
// background flow from owning a quarter of a bin's packets, which the
// sketch detector would alarm on.
const (
	liveFlowsPerBin = 42_000
	liveFirstBin    = 4
	liveEvery       = 4 // three quiet bins apart: wider than the incident cluster gap
	liveBins        = liveFirstBin + liveEvery*len(liveKinds)
	livePacedRate   = 250_000 // records per second offered in phase B
	livePaceChunk   = 256     // records between pacing checks
)

// liveKinds rotate through the replay, one every liveEvery bins: catalog
// kinds whose victim or source owns a quarter of a bin's flows or packets
// at this volume, which is what the sketch detector alarms on. ddos-syn
// qualifies too but is left to extract-mix: from the sketch's one-item
// alarm its self-tuning ends at the support floor after ten rounds on one
// seed and eleven on the next, a 100 ms difference that the seed decides.
var liveKinds = [...]string{"portscan", "udpflood", "dns-amplification"}

// liveDetectors leaves cusum out of the default pair. On this background
// cusum also alarms on about one quiet bin per three replays; such an
// incident merges with its neighbours and turns a one-bin extraction into
// a five-bin one, so latency would depend on the seed more than the code.
var liveDetectors = []string{stream.SketchName}

var liveReplay = workload{
	workloadDef: workloadDef{
		Name: "live-replay",
		Why:  "records through WithLive with auto-extract on, flat out and then paced: the only workload where stream, incident, jobs, the nfstore seal path and extraction share the cores",
	},
	sizes: map[string]int{"bins": liveBins, "background_flows_per_bin": liveFlowsPerBin, "paced_rec_per_s": livePacedRate},
	setup: setupLive, measure: measureLive,
}

// liveState is the trace to replay, in stream-clock order.
type liveState struct {
	dir   string
	recs  []flow.Record
	truth *gen.Truth
}

func setupLive(e *env, dir string) (any, func(), error) {
	sc := gen.Scenario{
		Background: background(e.scaled(liveFlowsPerBin)),
		Bins:       liveBins, StartTime: 1_300_000_200, Seed: e.seed,
	}
	for i, kind := range liveKinds {
		sc.Placements = append(sc.Placements, catalogPlacement(kind, liveFirstBin+liveEvery*i)...)
	}
	// One array, sized up front and sorted in place: growing and copying
	// it would leave peak memory to the collector's timing.
	col := stream.NewCollector(nfstore.DefaultBinSeconds)
	col.Captured = make([]flow.Record, 0, liveBins*e.scaled(liveFlowsPerBin)*5/4)
	truth, err := sc.Generate(col)
	if err != nil {
		return nil, nil, err
	}
	recs := col.Captured
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Start < recs[j].Start })
	return &liveState{dir: dir, recs: recs, truth: truth}, func() {}, nil
}

// replayResult is what one pass of the trace through a live system gave.
type replayResult struct {
	ingestS     float64            // first Ingest to last Ingest return
	totalS      float64            // first Ingest to DrainLive return
	toIncident  []float64          // ms from a bin's last record being due to its incident
	toExtracted map[string]float64 // ... to its finished extraction, per anomaly kind
	extracted   int                // finished extractions, false incidents included
	lateMaxMS   float64            // how far the paced generator fell behind
	queueMax    int
	stats       rootcause.StreamStats
	correlateMS float64
	dedupRatio  float64
	diskBytes   int64
}

// replay feeds the trace to a fresh live system, at rate records per
// second or flat out when rate is 0, drains it and checks the outcome.
func replay(e *env, st *liveState, out *outcome, name string, rate float64, autoExtract bool) (*replayResult, error) {
	dir := filepath.Join(st.dir, "replay")
	defer os.RemoveAll(dir)
	sys, err := rootcause.Create(rootcause.Config{StoreDir: dir},
		rootcause.WithLive(rootcause.LiveConfig{Detectors: liveDetectors, DisableAutoExtract: !autoExtract}))
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			sys.Close()
		}
	}()
	events, cancel, err := sys.TailIncidents()
	if err != nil {
		return nil, err
	}
	defer cancel()
	var got []rootcause.StreamEvent
	collected := make(chan struct{})
	go func() { // ends when DrainLive closes the feed
		defer close(collected)
		for ev := range events {
			got = append(got, ev)
		}
	}()

	op := e.tr.newOp()
	root := e.tr.begin(op, 0, "live."+name)
	res := &replayResult{toExtracted: map[string]float64{}}
	binSec := uint32(nfstore.DefaultBinSeconds)
	due := map[uint32]time.Time{} // bin start -> when its last record was due
	ingest := e.tr.begin(op, root, "stream.ingest")
	t0 := time.Now()
	dueAt := func(i int) time.Time { // when the paced schedule sends record i
		return t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	for i := range st.recs {
		if rate > 0 && i%livePaceChunk == 0 {
			if wait := time.Until(dueAt(i)); wait > 0 {
				time.Sleep(wait)
			} else {
				res.lateMaxMS = max(res.lateMaxMS, float64(-wait.Nanoseconds())/1e6)
			}
		}
		if err := sys.Ingest(bg, &st.recs[i]); err != nil {
			return nil, err
		}
		if last := i+1 == len(st.recs) || st.recs[i+1].Start/binSec != st.recs[i].Start/binSec; last {
			at := time.Now()
			if rate > 0 {
				at = dueAt(i)
			}
			due[st.recs[i].Start-st.recs[i].Start%binSec] = at
		}
		if e.tr != nil && i%16384 == 0 {
			res.queueMax = max(res.queueMax, sys.StreamStats().QueueLen)
		}
	}
	res.ingestS = time.Since(t0).Seconds()
	e.tr.end(ingest)
	if err := e.tr.call(op, root, "live.drain", func() error { return sys.DrainLive(bg) }); err != nil {
		return nil, err
	}
	res.totalS = time.Since(t0).Seconds()
	e.tr.end(root)
	<-collected
	res.stats = *sys.StreamStats()

	out.check(res.stats.Ingested == uint64(len(st.recs)) && res.stats.Dropped == 0,
		"%s: ingested %d of %d records, dropped %d", name, res.stats.Ingested, len(st.recs), res.stats.Dropped)
	// A detector may still alarm on the odd quiet bin, and such an
	// incident can absorb a neighbouring anomaly's. So the checks are per
	// placed anomaly: some finished extraction covers it and ranks its
	// signature within the floor.
	covered := map[int]bool{}
	for _, ev := range got {
		at, ok := due[ev.Bin.Start]
		if !ok {
			continue
		}
		ms := float64(ev.Time.Sub(at).Nanoseconds()) / 1e6
		switch ev.Type {
		case rootcause.StreamEventIncident:
			res.toIncident = append(res.toIncident, ms)
			e.tr.add(op, root, "incident.seal_to_incident", at, ev.Time)
		case rootcause.StreamEventExtracted:
			res.extracted++
			iv := ev.Incident.Incident.Interval
			ts, err := eval.ScoreTruth(sys.Store(), iv, ev.Result, st.truth, eval.DefaultScoreOptions())
			if err != nil {
				return nil, err
			}
			for i, en := range st.truth.Entries {
				if !en.Interval.Overlaps(iv) {
					continue
				}
				out.check(truthRanked(ts.Entries[i].Rank),
					"%s: %s incident ranked the injected signature %d", name, liveKinds[i], ts.Entries[i].Rank)
				covered[i] = true
				// The latency sample is the extraction the anomaly's own
				// bin seal set off.
				if ev.Bin.Start == st.truth.Entries[i].Interval.Start {
					res.toExtracted[liveKinds[i]] = ms
					e.tr.add(op, root, "live.seal_to_extracted", at, ev.Time)
				}
			}
		case rootcause.StreamEventError:
			out.fail("%s: stream error on incident %s: %s", name, ev.IncidentID, ev.Err)
		}
	}
	if autoExtract {
		out.check(len(covered) == len(st.truth.Entries) && res.stats.AutoFailed == 0,
			"%s: extractions cover %d of %d placed anomalies, %d failed",
			name, len(covered), len(st.truth.Entries), res.stats.AutoFailed)
	}
	if e.tr != nil {
		ms, err := timed(e.tr, op, 0, "incident.correlate", func() error {
			sum, err := sys.Correlate(bg, st.truth.Span)
			if err == nil && sum.AlarmsConsidered > 0 {
				res.dedupRatio = 1 - float64(sum.AlarmsKept)/float64(sum.AlarmsConsidered)
			}
			return err
		})
		if err != nil {
			return nil, err
		}
		res.correlateMS = ms
	}
	closed = true
	if err := sys.Close(); err != nil {
		return nil, err
	}
	res.diskBytes, err = dirBytes(dir)
	return res, err
}

func measureLive(e *env, state any) (*outcome, error) {
	st := state.(*liveState)
	out := &outcome{diskRecs: int64(len(st.recs))}
	var flat, paced []*replayResult
	// Phase A (flat out, blocking Ingest) twice, then phase B (open loop
	// at a fixed rate), round after round until the time is up. Each
	// replay starts from a collected heap.
	err := untilElapsed(e.seconds, func() error {
		for _, phase := range []struct {
			name string
			rate float64
		}{{"flat", 0}, {"flat", 0}, {"paced", livePacedRate}} {
			runtime.GC()
			r, err := replay(e, st, out, phase.name, phase.rate, true)
			if err != nil {
				return err
			}
			if phase.rate == 0 {
				flat = append(flat, r)
				out.round(float64(len(st.recs)), r.totalS)
				continue
			}
			paced = append(paced, r)
			for kind, ms := range r.toExtracted {
				out.sample(kind, ms)
			}
			out.diskBytes = r.diskBytes
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e.tr == nil {
		return out, nil
	}

	var toIncident []float64
	last := paced[len(paced)-1]
	for _, b := range paced {
		toIncident = append(toIncident, b.toIncident...)
		out.layer("stream.gen_late_max_ms", max(out.layers["stream.gen_late_max_ms"], b.lateMaxMS))
	}
	for _, a := range flat {
		out.layer("stream.queue_len_max", max(out.layers["stream.queue_len_max"], float64(a.queueMax)))
	}
	out.layer("incident.seal_to_incident_p50_ms", median(toIncident))
	out.layer("incident.correlate_ms", last.correlateMS)
	out.layer("incident.dedup_ratio", last.dedupRatio)
	out.layer("incident.extra_incidents", float64(last.extracted-len(st.truth.Entries)))
	out.layer("stream.dropped", float64(last.stats.Dropped))
	out.layer("stream.sealed_bins", float64(last.stats.SealedBins))
	out.layer("stream.alarms", float64(last.stats.Alarms))

	// stream: the ingest path alone, with nothing extracting beside it.
	detectOnly, err := replay(e, st, out, "detect-only", 0, false)
	if err != nil {
		return nil, err
	}
	out.layer("stream.ingest_ns_per_rec", detectOnly.ingestS*1e9/float64(len(st.recs)))
	for _, name := range []string{stream.CUSUMName, stream.SketchName} {
		dets, err := stream.BuildDetectors([]string{name})
		if err != nil {
			return nil, err
		}
		ms, _ := timed(e.tr, e.tr.newOp(), 0, "stream."+name+".observe", func() error {
			for i := range st.recs {
				dets[0].Observe(&st.recs[i])
			}
			return nil
		})
		out.layer("stream."+name+"_observe_ns_per_rec", ms*1e6/float64(len(st.recs)))
	}
	return out, nil
}
