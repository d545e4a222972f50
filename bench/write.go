package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	rootcause "repro"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
	"repro/internal/stream"
)

// Frozen store-write sizes (scale 1).
const (
	writeRecords = 262_144 // records one pass writes
	writeBins    = 8
	writeBatch   = 65_536
)

var storeWrite = workload{
	workloadDef: workloadDef{
		Name: "store-write",
		Why:  "catalog background pushed through create, add, flush, index, close and reopen: nfstore the other way round, so a scan gain bought with a slower or fatter write shows",
	},
	sizes: map[string]int{"records_per_pass": writeRecords, "bins": writeBins, "batch": writeBatch},
	setup: setupWrite, measure: measureWrite,
}

// writeState is the in-memory background one pass writes out.
type writeState struct {
	dir  string
	recs []flow.Record
}

func setupWrite(e *env, dir string) (any, func(), error) {
	n := e.scaled(writeRecords)
	sc := gen.Scenario{
		Background: background(n / writeBins),
		Bins:       writeBins, StartTime: 1_300_000_200, Seed: e.seed,
	}
	col := stream.NewCollector(nfstore.DefaultBinSeconds)
	if _, err := sc.Generate(col); err != nil {
		return nil, nil, err
	}
	// Poisson bin volumes vary with the seed; a fixed count keeps every
	// pass the same size.
	recs := col.Sorted()
	if len(recs) > n {
		recs = recs[:n]
	}
	return &writeState{dir: dir, recs: recs}, func() {}, nil
}

func measureWrite(e *env, state any) (*outcome, error) {
	st := state.(*writeState)
	out := &outcome{}
	var allocPerRec []float64
	pass := 0
	err := untilElapsed(e.seconds, func() error {
		dir := filepath.Join(st.dir, fmt.Sprintf("pass%d", pass))
		pass++
		defer os.RemoveAll(dir)
		op := e.tr.newOp()
		root := e.tr.begin(op, 0, "store-write.pass")
		var before, after runtime.MemStats
		if e.tr != nil {
			runtime.ReadMemStats(&before)
		}
		t0 := time.Now()
		err := writePass(e.tr, op, root, dir, st.recs)
		ms := float64(time.Since(t0).Nanoseconds()) / 1e6
		e.tr.end(root)
		if err != nil {
			return err
		}
		if e.tr != nil {
			runtime.ReadMemStats(&after)
			allocPerRec = append(allocPerRec, float64(after.TotalAlloc-before.TotalAlloc)/float64(len(st.recs)))
		}
		out.sample("pass", ms)
		out.round(float64(len(st.recs)), ms/1e3)

		// Every record written must be readable from the reopened store.
		flows, err := reopenCount(dir)
		out.check(err == nil && flows == uint64(len(st.recs)),
			"pass %d: reopened store counts %d records, wrote %d (%v)", pass, flows, len(st.recs), err)
		if out.diskBytes, err = dirBytes(dir); err != nil {
			return err
		}
		out.diskRecs = int64(len(st.recs))
		return nil
	})
	if err != nil {
		return nil, err
	}
	if e.tr == nil {
		return out, nil
	}
	perRec := 1e6 / float64(writeBatch) // ms per batch -> ns per record
	if len(st.recs) < writeBatch {
		perRec = 1e6 / float64(len(st.recs))
	}
	out.layer("nfstore.add_ns_per_rec", medianSpanMS(e.tr, "nfstore.add")*perRec)
	out.layer("nfstore.flush_seal_ms", medianSpanMS(e.tr, "nfstore.flush"))
	out.layer("nfstore.build_indexes_ms", medianSpanMS(e.tr, "nfstore.build_indexes"))
	out.layer("nfstore.open_ms", medianSpanMS(e.tr, "nfstore.open"))
	out.layer("nfstore.alloc_bytes_per_rec", median(allocPerRec))
	return out, nil
}

// reopenCount opens the store in dir and counts every record in its span.
func reopenCount(dir string) (uint64, error) {
	sys, err := rootcause.Open(rootcause.Config{StoreDir: dir})
	if err != nil {
		return 0, err
	}
	defer sys.Close()
	span, _, err := sys.Store().Span()
	if err != nil {
		return 0, err
	}
	flows, _, _, err := sys.Store().Count(bg, span, nil)
	return flows, err
}

// writePass is the timed op: a fresh v2 store created, filled in
// batches, flushed, indexed and closed, then opened again.
func writePass(tr *tracer, op, parent int, dir string, recs []flow.Record) error {
	var sys *rootcause.System
	err := tr.call(op, parent, "nfstore.create", func() (err error) {
		sys, err = rootcause.Create(rootcause.Config{StoreDir: dir}, rootcause.WithSegmentFormat(nfstore.FormatV2))
		return err
	})
	if err != nil {
		return err
	}
	store := sys.Store()
	for lo := 0; lo < len(recs); lo += writeBatch {
		batch := recs[lo:min(lo+writeBatch, len(recs))]
		if err := tr.call(op, parent, "nfstore.add", func() error { return store.AddAll(batch) }); err != nil {
			sys.Close()
			return err
		}
	}
	if err := tr.call(op, parent, "nfstore.flush", store.Flush); err != nil {
		sys.Close()
		return err
	}
	if ix, ok := store.(interface {
		BuildIndexes(context.Context) (int, error)
	}); ok {
		err := tr.call(op, parent, "nfstore.build_indexes", func() error { _, err := ix.BuildIndexes(bg); return err })
		if err != nil {
			sys.Close()
			return err
		}
	}
	if err := tr.call(op, parent, "nfstore.close", sys.Close); err != nil {
		return err
	}
	return tr.call(op, parent, "nfstore.open", func() error {
		reopened, err := rootcause.Open(rootcause.Config{StoreDir: dir})
		if err != nil {
			return err
		}
		_, _, err = reopened.Store().Span()
		if cerr := reopened.Close(); err == nil {
			err = cerr
		}
		return err
	})
}
