package rootcause_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rootcause "repro"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/nfstore"
)

// fakeDetector is an out-of-package detector implementation: the
// registry's reason to exist.
type fakeDetector struct {
	name   string
	alarms []rootcause.Alarm
}

func (d *fakeDetector) Detect(ctx context.Context, _ nfstore.Engine, span flow.Interval) ([]detector.Alarm, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make([]detector.Alarm, 0, len(d.alarms))
	for _, a := range d.alarms {
		if a.Interval.Overlaps(span) {
			out = append(out, a)
		}
	}
	return out, nil
}

// newEmptySystem builds a system over an empty store, passing opts
// through to Create (job-manager sizing, query parallelism, ...).
func newEmptySystem(t *testing.T, opts ...rootcause.Option) *rootcause.System {
	t.Helper()
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(t.TempDir(), "flows")}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys
}

func TestRegistryBuiltins(t *testing.T) {
	names := rootcause.DetectorNames()
	for _, want := range []string{"histogram", "netreflex", "pca"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Fatalf("built-in %q missing from %v", want, names)
		}
	}
}

func TestRegisterDetectorExternal(t *testing.T) {
	iv := rootcause.Interval{Start: 300, End: 600}
	det := &fakeDetector{
		name: "external-test-ids",
		alarms: []rootcause.Alarm{
			{Detector: "external-test-ids", Interval: iv, Kind: detector.KindDoS},
		},
	}
	if err := rootcause.RegisterDetector(det.name, func() (rootcause.Detector, error) {
		return det, nil
	}); err != nil {
		t.Fatal(err)
	}

	sys := newEmptySystem(t)
	ids, err := sys.Detect(t.Context(), det.name, rootcause.Interval{Start: 0, End: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("external detector filed %d alarms, want 1", len(ids))
	}
	entry, err := sys.Alarm(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if entry.Alarm.Kind != detector.KindDoS {
		t.Fatalf("stored alarm = %+v", entry.Alarm)
	}
	// And it shows up in the listing.
	listed := false
	for _, n := range rootcause.DetectorNames() {
		if n == det.name {
			listed = true
		}
	}
	if !listed {
		t.Fatalf("%q not listed in DetectorNames", det.name)
	}
}

func TestRegisterDetectorDuplicateAndInvalid(t *testing.T) {
	factory := func() (rootcause.Detector, error) {
		return &fakeDetector{name: "dup-test"}, nil
	}
	if err := rootcause.RegisterDetector("dup-test", factory); err != nil {
		t.Fatal(err)
	}
	if err := rootcause.RegisterDetector("dup-test", factory); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	if err := rootcause.RegisterDetector("", factory); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := rootcause.RegisterDetector("nil-factory", nil); err == nil {
		t.Fatal("nil factory must fail")
	}
}

func TestDetectUnknownName(t *testing.T) {
	sys := newEmptySystem(t)
	_, err := sys.Detect(t.Context(), "no-such-detector", rootcause.Interval{Start: 0, End: 300})
	if err == nil || !strings.Contains(err.Error(), "no-such-detector") {
		t.Fatalf("err = %v, want unknown-detector error", err)
	}
}

// fileAlarms stores n trivial alarms and returns their IDs.
func fileAlarms(sys *rootcause.System, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = sys.FileAlarm(rootcause.Alarm{
			Detector: "test",
			Interval: rootcause.Interval{Start: 300, End: 600},
		})
	}
	return ids
}

// TestBatchWidthBoundedByJobWorkers: a batch job runs at most as many
// extractions at once as the system has job workers, whatever the
// batch size — nothing in the call widens it.
func TestBatchWidthBoundedByJobWorkers(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sys := newEmptySystem(t, rootcause.WithJobWorkers(workers))
			ids := slices.Repeat(fileAlarms(sys, 1), 8)

			var cur, peak, calls atomic.Int32
			fn := func(ctx context.Context, a *rootcause.Alarm) (*rootcause.Result, error) {
				c := cur.Add(1)
				defer cur.Add(-1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				calls.Add(1)
				time.Sleep(5 * time.Millisecond) // let the fan-out fill up
				return &rootcause.Result{Alarm: *a}, nil
			}
			id, err := sys.Submit(rootcause.JobRequest{AlarmIDs: ids}, rootcause.WithExtractFunc(fn))
			if err != nil {
				t.Fatal(err)
			}
			jr, err := sys.Wait(t.Context(), id)
			if err != nil {
				t.Fatal(err)
			}
			if len(jr.Batch) != len(ids) {
				t.Fatalf("%d outcomes, want %d", len(jr.Batch), len(ids))
			}
			for _, r := range jr.Batch {
				if r.Err != nil {
					t.Fatalf("alarm %s: %v", r.AlarmID, r.Err)
				}
			}
			if calls.Load() != int32(len(ids)) {
				t.Fatalf("extract ran %d times, want %d", calls.Load(), len(ids))
			}
			if p := peak.Load(); p > int32(workers) {
				t.Fatalf("peak concurrency %d exceeds %d job workers", p, workers)
			}
			// Successful batch extraction updates the workflow status like Extract.
			if entry, err := sys.Alarm(ids[0]); err != nil || entry.Status != "analyzed" {
				t.Fatalf("alarm %s = (%+v, %v) after batch, want analyzed", ids[0], entry, err)
			}
		})
	}
}

// TestBatchJobCancellation: CancelJob mid-batch cancels the job and
// every fan-out goroutine exits.
func TestBatchJobCancellation(t *testing.T) {
	sys := newEmptySystem(t, rootcause.WithJobWorkers(2))
	ids := fileAlarms(sys, 8)

	before := runtime.NumGoroutine()
	started := make(chan struct{}, len(ids))
	fn := func(ctx context.Context, a *rootcause.Alarm) (*rootcause.Result, error) {
		started <- struct{}{}
		<-ctx.Done() // a slow extraction that only ends by cancellation
		return nil, ctx.Err()
	}
	id, err := sys.Submit(rootcause.JobRequest{AlarmIDs: ids}, rootcause.WithExtractFunc(fn))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the fan-out is saturated, then cancel mid-batch.
	<-started
	<-started
	if err := sys.CancelJob(id); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wait(t.Context(), id); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i > 100 {
			t.Fatalf("goroutines %d > %d before the batch", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExtractAllUnknownAlarm: an unknown ID in a batch fails only its
// own outcome; the rest of the batch still extracts.
func TestExtractAllUnknownAlarm(t *testing.T) {
	sys := newEmptySystem(t)
	ids := fileAlarms(sys, 1)
	fn := func(ctx context.Context, a *rootcause.Alarm) (*rootcause.Result, error) {
		return &rootcause.Result{Alarm: *a}, nil
	}
	id, err := sys.Submit(rootcause.JobRequest{AlarmIDs: append(ids, "does-not-exist")},
		rootcause.WithExtractFunc(fn))
	if err != nil {
		t.Fatal(err)
	}
	jr, err := sys.Wait(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	var okCount, errCount int
	for _, r := range jr.Batch {
		if r.Err != nil {
			errCount++
		} else {
			okCount++
		}
	}
	if okCount != 1 || errCount != 1 {
		t.Fatalf("ok=%d err=%d, want 1/1", okCount, errCount)
	}
}

// TestExtractAllEmpty: an empty batch is rejected at submission and
// admits no job.
func TestExtractAllEmpty(t *testing.T) {
	sys := newEmptySystem(t)
	for _, ids := range [][]string{nil, {}} {
		if _, err := sys.Submit(rootcause.JobRequest{AlarmIDs: ids}); err == nil {
			t.Fatalf("empty batch %#v must be rejected", ids)
		}
	}
	if len(sys.Jobs()) != 0 {
		t.Fatalf("empty batches created jobs: %v", sys.Jobs())
	}
}

// TestExtractAllStreamsInCompletionOrder pins the streaming contract:
// a fast extraction reaches the WithBatchResults sink before a slow one
// that started first.
func TestExtractAllStreamsInCompletionOrder(t *testing.T) {
	sys := newEmptySystem(t, rootcause.WithJobWorkers(2))
	ids := fileAlarms(sys, 2)
	slow, fast := ids[0], ids[1]

	release := make(chan struct{})
	fn := func(ctx context.Context, a *rootcause.Alarm) (*rootcause.Result, error) {
		if a.ID == slow {
			<-release
		}
		return &rootcause.Result{Alarm: *a}, nil
	}
	out := make(chan rootcause.ExtractResult, len(ids))
	id, err := sys.Submit(rootcause.JobRequest{AlarmIDs: ids},
		rootcause.WithBatchResults(func(r rootcause.ExtractResult) { out <- r }),
		rootcause.WithExtractFunc(fn))
	if err != nil {
		t.Fatal(err)
	}
	next := func() rootcause.ExtractResult {
		t.Helper()
		select {
		case r := <-out:
			return r
		case <-time.After(5 * time.Second):
			t.Fatal("no streamed result within 5s")
			return rootcause.ExtractResult{}
		}
	}
	if first := next(); first.AlarmID != fast {
		t.Fatalf("first streamed result = %s, want the fast alarm %s", first.AlarmID, fast)
	}
	close(release)
	if second := next(); second.AlarmID != slow {
		t.Fatalf("second streamed result = %s, want %s", second.AlarmID, slow)
	}
	jr, err := sys.Wait(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(jr.Batch) != len(ids) {
		t.Fatalf("%d outcomes, want %d", len(jr.Batch), len(ids))
	}
	select {
	case r := <-out:
		t.Fatalf("extra streamed result %s after all alarms", r.AlarmID)
	default:
	}
}

func TestWithExtractionOptionsInvalid(t *testing.T) {
	sys := newEmptySystem(t)
	id := sys.FileAlarm(rootcause.Alarm{Interval: rootcause.Interval{Start: 300, End: 600}})
	bad := rootcause.DefaultExtractionOptions()
	bad.MaxItemsets = 1
	bad.MinItemsets = 5 // Max < Min: rejected by option validation
	if _, err := sys.Extract(t.Context(), id, rootcause.WithExtractionOptions(bad)); err == nil {
		t.Fatal("invalid per-call extraction options must be rejected")
	}
}

func TestExtractCancelledContext(t *testing.T) {
	dir := t.TempDir()
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(dir, "flows")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	recs := make([]rootcause.Record, 200)
	for i := range recs {
		recs[i] = rootcause.Record{
			Start: 300 + uint32(i%300), SrcIP: flow.IP(i + 1), DstIP: 2,
			SrcPort: 1, DstPort: 80, Proto: flow.ProtoTCP, Packets: 1, Bytes: 40,
		}
	}
	if err := sys.Store().AddAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := sys.Store().Flush(); err != nil {
		t.Fatal(err)
	}
	id := sys.FileAlarm(rootcause.Alarm{Interval: rootcause.Interval{Start: 300, End: 600}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.Extract(ctx, id); !errors.Is(err, context.Canceled) {
		t.Fatalf("Extract err = %v, want context.Canceled", err)
	}
	if _, err := sys.Flows(ctx, rootcause.Interval{Start: 0, End: 900}, ""); !errors.Is(err, context.Canceled) {
		t.Fatalf("Flows err = %v, want context.Canceled", err)
	}
}

// Compile-time check that the exported factory type matches the
// registry's, so third-party registration code can use either name.
var _ rootcause.DetectorFactory = func() (detector.Detector, error) {
	return nil, fmt.Errorf("unused")
}
