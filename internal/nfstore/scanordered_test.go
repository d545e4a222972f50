package nfstore

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/nffilter"
)

// orderedUnits is a fake ScanOrdered workload: unit i emits sizes[i]
// rows (Start i, SrcPort 0..) in batches of orderedBatch rows and then
// returns errs[i]. It checks ctx per batch, as real segment scans do
// per block, and counts the scans running at once.
type orderedUnits struct {
	sizes   []int
	errs    map[int]error
	running atomic.Int32
	peak    atomic.Int32
}

// orderedBatch does not divide queryBatchSize, so workers split and join
// the units' batches.
const orderedBatch = 300

var orderedCols = nffilter.ColumnSet(0).With(nffilter.ColStart).With(nffilter.ColSrcPort)

func (u *orderedUnits) scan(ctx context.Context, i int, emit func(*Batch) error) error {
	now := u.running.Add(1)
	defer u.running.Add(-1)
	for p := u.peak.Load(); now > p && !u.peak.CompareAndSwap(p, now); p = u.peak.Load() {
	}
	time.Sleep(time.Millisecond) // let units overlap, so an eager start would show
	for lo := 0; lo < u.sizes[i]; lo += orderedBatch {
		if err := ctx.Err(); err != nil {
			return err
		}
		b := Batch{n: min(orderedBatch, u.sizes[i]-lo), cols: orderedCols}
		for j := lo; j < lo+b.n; j++ {
			b.Start = append(b.Start, uint32(i))
			b.SrcPort = append(b.SrcPort, uint16(j))
		}
		if err := emit(&b); err != nil {
			return fmt.Errorf("unit %d: %w", i, err)
		}
	}
	return u.errs[i]
}

// want is the serial sequence of every unit's rows.
func (u *orderedUnits) want() []flow.Record {
	var out []flow.Record
	for i, n := range u.sizes {
		for j := range n {
			out = append(out, flow.Record{Start: uint32(i), SrcPort: uint16(j)})
		}
	}
	return out
}

// eachRow hands fn every row of each batch.
func eachRow(fn func(*flow.Record) error) func(*Batch) error {
	return func(b *Batch) error {
		var r flow.Record
		for i := range b.Len() {
			b.Record(i, &r)
			if err := fn(&r); err != nil {
				return err
			}
		}
		return nil
	}
}

func collect(out *[]flow.Record) func(*Batch) error {
	return eachRow(func(r *flow.Record) error {
		*out = append(*out, *r)
		return nil
	})
}

// Sizes straddle queryBatchSize, and the units past the channel buffer
// (4 batches) block their workers until the merge reaches them.
var orderedSizes = []int{3000, 0, 1, 700, 3000, 512, 2600, 5}

// TestScanOrderedSequenceAndBound pins the merge order at every fan-out
// and the lazy-start bound: never more than k scans running at once.
func TestScanOrderedSequenceAndBound(t *testing.T) {
	n := len(orderedSizes)
	for _, k := range []int{1, 2, 4, n + 3} {
		u := &orderedUnits{sizes: orderedSizes}
		var got []flow.Record
		if err := ScanOrdered(context.Background(), n, k, u.scan, collect(&got), nil); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !reflect.DeepEqual(got, u.want()) {
			t.Fatalf("k=%d: %d records out of order or missing (want %d)", k, len(got), len(u.want()))
		}
		if peak := int(u.peak.Load()); peak > min(k, n) {
			t.Fatalf("k=%d: %d scans ran at once", k, peak)
		}
	}
}

// TestScanOrderedFnError pins that an fn error ends the scan verbatim,
// even when the unit wraps it and fail would skip the unit.
func TestScanOrderedFnError(t *testing.T) {
	boom := errors.New("boom")
	for _, k := range []int{1, 3} {
		u := &orderedUnits{sizes: orderedSizes}
		seen := 0
		fn := func(*flow.Record) error {
			if seen++; seen == 3500 {
				return boom
			}
			return nil
		}
		skip := func(int, error) error { return nil }
		if err := ScanOrdered(context.Background(), len(orderedSizes), k, u.scan, eachRow(fn), skip); err != boom {
			t.Fatalf("k=%d: err = %v, want boom verbatim", k, err)
		}
		if seen != 3500 {
			t.Fatalf("k=%d: fn ran %d times after its error", k, seen-3500)
		}
	}
}

// TestScanOrderedFail pins the fail contract: a failing unit's rows all
// reach fn before fail sees its error; nil skips the unit, a nil fail
// ends the scan with the unit's error.
func TestScanOrderedFail(t *testing.T) {
	dead := errors.New("dead")
	n := len(orderedSizes)
	for _, k := range []int{1, 3} {
		u := &orderedUnits{sizes: orderedSizes, errs: map[int]error{3: dead}}
		var got []flow.Record
		var failed []int
		skip := func(i int, err error) error {
			if err != dead {
				t.Errorf("k=%d: fail(%d) got %v", k, i, err)
			}
			failed = append(failed, i)
			return nil
		}
		if err := ScanOrdered(context.Background(), n, k, u.scan, collect(&got), skip); err != nil {
			t.Fatalf("k=%d skip: %v", k, err)
		}
		if !reflect.DeepEqual(got, u.want()) || !reflect.DeepEqual(failed, []int{3}) {
			t.Fatalf("k=%d skip: %d records (want %d), fail called for %v", k, len(got), len(u.want()), failed)
		}

		got = nil
		if err := ScanOrdered(context.Background(), n, k, u.scan, collect(&got), nil); err != dead {
			t.Fatalf("k=%d: err = %v, want the unit's error", k, err)
		}
		through3 := 3000 + 0 + 1 + 700
		if !reflect.DeepEqual(got, u.want()[:through3]) {
			t.Fatalf("k=%d: %d records before the failure, want %d", k, len(got), through3)
		}
	}
}

// TestScanOrderedCancel pins cancellation mid-merge: the scan returns
// ctx.Err(), and fn sees less than one batch after the cancel.
func TestScanOrderedCancel(t *testing.T) {
	for _, k := range []int{1, 3} {
		u := &orderedUnits{sizes: orderedSizes}
		ctx, cancel := context.WithCancel(context.Background())
		seen, after := 0, 0
		fn := func(*flow.Record) error {
			if seen++; seen == 1000 {
				cancel()
			} else if seen > 1000 {
				after++
			}
			return nil
		}
		err := ScanOrdered(ctx, len(orderedSizes), k, u.scan, eachRow(fn), nil)
		if !errors.Is(err, context.Canceled) || err != ctx.Err() {
			t.Fatalf("k=%d: err = %v, want ctx.Err()", k, err)
		}
		if after >= queryBatchSize {
			t.Fatalf("k=%d: fn ran %d times after cancel", k, after)
		}
	}
}
