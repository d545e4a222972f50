package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	rootcause "repro"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/eval"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/miner"
)

// Frozen extract-mix sizes (scale 1).
const (
	extractBins        = 12
	extractFlowsPerBin = 50_000 // background, over extractPoPs
	extractPoPs        = 4
	extractHosts       = 20_000
	extractServers     = 2_000
	extractFirstBin    = 3 // anomaly i sits in bin extractFirstBin+i
	extractWideBins    = 4 // span of the wide alarm of the traced run
)

var extractMix = workload{
	workloadDef: workloadDef{
		Name: "extract-mix",
		Why:  "alarm to ranked itemsets on a sealed store: six anomaly kinds x three miners, so core, miner.* and itemset do the work and nfstore only the candidate scan",
	},
	sizes: map[string]int{"bins": extractBins, "background_flows_per_bin": extractFlowsPerBin},
	setup: setupExtract, measure: measureExtract,
}

// extractState is a sealed store holding one catalog anomaly per bin,
// with one synthesized alarm filed per anomaly.
type extractState struct {
	sys      *rootcause.System
	dir      string
	truth    *gen.Truth
	alarmIDs []string // alarmIDs[i] is the alarm of anomalyKinds[i]
}

// background is the catalog background at the given per-bin volume.
func background(flowsPerBin int) gen.Background {
	return gen.Background{
		NumPoPs: extractPoPs, FlowsPerBin: max(1, flowsPerBin/extractPoPs),
		Hosts: extractHosts, Servers: extractServers,
	}
}

func setupExtract(e *env, dir string) (any, func(), error) {
	sc := gen.Scenario{
		Background: background(e.scaled(extractFlowsPerBin)),
		Bins:       extractBins, StartTime: 1_300_000_200, Seed: e.seed,
	}
	for i, kind := range anomalyKinds {
		sc.Placements = append(sc.Placements, catalogPlacement(kind, extractFirstBin+i)...)
	}
	storeDir := filepath.Join(dir, "store")
	sys, err := rootcause.Create(rootcause.Config{StoreDir: storeDir})
	if err != nil {
		return nil, nil, err
	}
	truth, err := sc.Generate(sys.Store())
	if err != nil {
		sys.Close()
		return nil, nil, err
	}
	st := &extractState{sys: sys, dir: storeDir, truth: truth}
	for i := range truth.Entries {
		st.alarmIDs = append(st.alarmIDs, sys.FileAlarm(eval.SynthesizeAlarm(&truth.Entries[i])))
	}
	return st, func() { sys.Close() }, nil
}

// phaseClock turns core's progress callbacks into phase boundaries: the
// time each phase was first reported. Callbacks arrive on a job worker.
type phaseClock struct {
	mu     sync.Mutex
	phases []string
	at     []time.Time
}

func (c *phaseClock) observe(p rootcause.ExtractionProgress) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.phases); n == 0 || c.phases[n-1] != p.Phase {
		c.phases = append(c.phases, p.Phase)
		c.at = append(c.at, time.Now())
	}
}

// jobTrace collects what a traced run learns about each extraction job
// from the outside: phase boundaries, queue wait and tuning rounds.
type jobTrace struct {
	phaseMS                 map[string][]float64
	selfMS, queueMS, rounds []float64
	jobMS                   map[string]float64 // last Submit+Wait wall per kind/miner cell
}

// record files one finished job: its phases become child spans of wait.
func (jt *jobTrace) record(tr *tracer, op, wait int, cell string, ms float64, jr *rootcause.JobResult, clock *phaseClock) {
	jt.jobMS[cell] = ms
	if s := jr.Status; s.StartedAt != nil && s.FinishedAt != nil {
		jt.queueMS = append(jt.queueMS, float64(s.StartedAt.Sub(s.SubmittedAt).Nanoseconds())/1e6)
		run := float64(s.FinishedAt.Sub(*s.StartedAt).Nanoseconds()) / 1e6
		for p, phase := range clock.phases {
			end := *s.FinishedAt
			if p+1 < len(clock.at) {
				end = clock.at[p+1]
			}
			tr.add(op, wait, "core.phase."+phase, clock.at[p], end)
			d := float64(end.Sub(clock.at[p]).Nanoseconds()) / 1e6
			jt.phaseMS[phase] = append(jt.phaseMS[phase], d)
			run -= d
		}
		jt.selfMS = append(jt.selfMS, run)
	}
	var r float64
	for _, t := range jr.Result.Tuning {
		r += float64(t.Rounds)
	}
	jt.rounds = append(jt.rounds, r)
}

func measureExtract(e *env, state any) (*outcome, error) {
	st := state.(*extractState)
	out := &outcome{}
	var rank1, extractions int
	jt := &jobTrace{phaseMS: map[string][]float64{}, jobMS: map[string]float64{}}

	err := untilElapsed(e.seconds, func() error {
		var flows, wallS float64
		defer func() { out.round(flows, wallS) }()
		for i, kind := range anomalyKinds {
			for _, m := range minerNames {
				op := e.tr.newOp()
				root := e.tr.begin(op, 0, "extract")
				clock := &phaseClock{}
				opts := []rootcause.Option{rootcause.WithMiner(m), rootcause.WithTransientJob()}
				if e.tr != nil {
					opts = append(opts, rootcause.WithProgress(clock.observe))
				}
				var id string
				var jr *rootcause.JobResult
				t0 := time.Now()
				err := e.tr.call(op, root, "jobs.submit", func() (err error) {
					id, err = st.sys.Submit(rootcause.JobRequest{AlarmID: st.alarmIDs[i]}, opts...)
					return err
				})
				wait := e.tr.begin(op, root, "jobs.wait")
				if err == nil {
					jr, err = st.sys.Wait(bg, id)
				}
				ms := float64(time.Since(t0).Nanoseconds()) / 1e6
				e.tr.end(wait)
				e.tr.end(root)
				out.attempted++
				if err != nil {
					out.fail("extract %s/%s: %v", kind, m, err)
					continue
				}
				out.sample(kind+"/"+m, ms)
				flows += float64(jr.Result.CandidateFlows)
				wallS += ms / 1e3

				ts, err := eval.ScoreTruth(st.sys.Store(), st.truth.Entries[i].Interval, jr.Result, st.truth, eval.DefaultScoreOptions())
				if err != nil {
					return err
				}
				extractions++
				if rank := ts.Entries[i].Rank; rank == 1 {
					rank1++
				} else if !truthRanked(rank) {
					out.fail("extract %s/%s: injected signature ranked %d, want 1..%d", kind, m, rank, maxTruthRank)
				}
				if e.tr != nil {
					jt.record(e.tr, op, wait, kind+"/"+m, ms, jr, clock)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.diskBytes, err = dirBytes(st.dir)
	if err != nil {
		return nil, err
	}
	out.diskRecs = int64(st.truth.BackgroundFlows)
	for _, en := range st.truth.Entries {
		out.diskRecs += int64(en.StoredFlows)
	}
	if e.tr == nil {
		return out, nil
	}

	out.layer("core.truth_rank1_frac", float64(rank1)/float64(max(1, extractions)))
	for _, p := range corePhases {
		out.layer("core.phase_ms."+p, median(jt.phaseMS[p]))
	}
	out.layer("core.self_ms", median(jt.selfMS))
	out.layer("core.tuning_rounds", median(jt.rounds))
	out.layer("jobs.queue_wait_ms", median(jt.queueMS))
	return out, probeExtractLayers(e, st, out, jt.jobMS)
}

// probeExtractLayers times direct calls into the layers an extraction
// passes through, one alarm of each kind at a time.
func probeExtractLayers(e *env, st *extractState, out *outcome, jobMS map[string]float64) error {
	store := st.sys.Store()
	var iterNS, buildNS, distinct, supportMS, coverMS, maximalMS, overheadMS []float64
	itemsets := map[string]float64{}
	floor := core.DefaultOptions().SupportFloor
	for i, kind := range anomalyKinds {
		entry := &st.truth.Entries[i]
		op := e.tr.newOp()

		// nfstore: stream the alarm bin the way candidate selection does.
		var n int
		ms, err := timed(e.tr, op, 0, "nfstore.iter", func() error {
			for _, err := range store.Iter(bg, entry.Interval, nil) {
				if err != nil {
					return err
				}
				n++
			}
			return nil
		})
		if err != nil {
			return err
		}
		iterNS = append(iterNS, ms*1e6/float64(max(1, n)))

		// itemset: build the candidate dataset the engine would mine —
		// the alarm's meta pre-filter, or the whole bin when it is too
		// narrow (udpflood).
		alarm := eval.SynthesizeAlarm(entry)
		recs, err := candidateRecords(st, &alarm)
		if err != nil {
			return err
		}
		b := itemset.NewBuilder()
		ms, _ = timed(e.tr, op, 0, "itemset.build", func() error {
			for r := range recs {
				b.Add(&recs[r])
			}
			return nil
		})
		buildNS = append(buildNS, ms*1e6/float64(len(recs)))
		distinct = append(distinct, float64(b.Len())/float64(len(recs)))
		ds := b.Dataset()

		// miner.*: one direct Mine at the support floor, per miner.
		var frequent []itemset.Frequent
		for _, name := range minerNames {
			m, err := miner.New(name)
			if err != nil {
				return err
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ms, err := timed(e.tr, op, 0, "miner."+name+".mine", func() (err error) {
				frequent, err = m.Mine(bg, ds, miner.Options{MinSupport: floor, Prefilter: true}) // core sets Prefilter for every miner
				return err
			})
			if err != nil {
				return err
			}
			runtime.ReadMemStats(&after)
			out.layer("miner."+name+".mine_ms."+kind, ms)
			out.layer("miner."+name+".alloc_mb."+kind, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
			itemsets[name] += float64(len(frequent))
		}

		// itemset: the post-mining passes over the last miner's output.
		var maximal []itemset.Frequent
		ms, _ = timed(e.tr, op, 0, "itemset.maximal", func() error {
			maximal = itemset.MaximalOnly(frequent)
			return nil
		})
		maximalMS = append(maximalMS, ms)
		sets := make([]itemset.Set, len(maximal))
		for s := range maximal {
			sets[s] = maximal[s].Items
		}
		ms, _ = timed(e.tr, op, 0, "itemset.supportall", func() error {
			ds.SupportAll(sets, 0)
			return nil
		})
		supportMS = append(supportMS, ms)
		ms, _ = timed(e.tr, op, 0, "itemset.coverage", func() error {
			ds.Coverage(sets, false, 0)
			return nil
		})
		coverMS = append(coverMS, ms)

		// jobs: what Submit+Wait cost beyond the synchronous call.
		ms, err = timed(e.tr, op, 0, "core.extract_sync", func() error {
			_, err := st.sys.Extract(bg, st.alarmIDs[i], rootcause.WithMiner("fpgrowth"))
			return err
		})
		if err != nil {
			return err
		}
		overheadMS = append(overheadMS, jobMS[kind+"/fpgrowth"]-ms)
	}
	out.layer("nfstore.iter_ns_per_rec", median(iterNS))
	out.layer("itemset.build_ns_per_flow", median(buildNS))
	out.layer("itemset.distinct_tx_frac", median(distinct))
	out.layer("itemset.maximal_ms", median(maximalMS))
	out.layer("itemset.supportall_ms", median(supportMS))
	out.layer("itemset.coverage_ms", median(coverMS))
	out.layer("jobs.overhead_ms", median(overheadMS))
	for name, n := range itemsets {
		out.layer("miner."+name+".itemsets", n)
	}

	// core: one wide alarm spanning several bins, per miner.
	first := st.truth.Entries[0].Interval
	wide := detector.Alarm{
		Detector: "bench-wide", Kind: st.truth.Entries[0].Kind, Score: 1,
		Interval: flow.Interval{Start: first.Start, End: first.Start + extractWideBins*(first.End-first.Start)},
	}
	wideID := st.sys.FileAlarm(wide)
	for _, name := range minerNames {
		ms, err := timed(e.tr, e.tr.newOp(), 0, "core.extract_wide."+name, func() error {
			_, err := st.sys.Extract(bg, wideID, rootcause.WithMiner(name))
			return err
		})
		if err != nil {
			return fmt.Errorf("wide extract %s: %w", name, err)
		}
		out.layer("core.extract_wide_ms."+name, ms)
	}

	// detector: the operator's step before extraction, over the same store.
	for _, name := range detectorNames {
		ms, err := timed(e.tr, e.tr.newOp(), 0, "detector."+name, func() error {
			_, err := st.sys.Detect(bg, name, st.truth.Span)
			return err
		})
		if err != nil {
			return fmt.Errorf("detect %s: %w", name, err)
		}
		out.layer("detector."+name+".detect_ms", ms)
	}
	return nil
}

// candidateRecords returns the records core would select for the alarm.
func candidateRecords(st *extractState, a *detector.Alarm) ([]flow.Record, error) {
	store := st.sys.Store()
	if mf := a.MetaFilter(); mf != nil {
		recs, err := store.Records(bg, a.Interval, mf)
		if err != nil || len(recs) >= core.DefaultOptions().MinCandidates {
			return recs, err
		}
	}
	return store.Records(bg, a.Interval, nil)
}
