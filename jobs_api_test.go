package rootcause_test

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	rootcause "repro"
	"repro/internal/alarmdb"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
)

// newScanSystem builds a system over a generated port-scan trace with
// one filed alarm, passing opts through to Create.
func newScanSystem(t *testing.T, opts ...rootcause.Option) (*rootcause.System, string) {
	t.Helper()
	sys, err := rootcause.Create(rootcause.Config{
		StoreDir: filepath.Join(t.TempDir(), "flows"),
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	scanner := flow.MustParseIP("10.191.64.165")
	victim := flow.MustParseIP("198.19.137.129")
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 200},
		Bins:       4, StartTime: 1_300_000_200, Seed: 7,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 1000, FlowsPerPort: 1, Router: 1}, Bin: 2},
		},
	}
	truth, err := scenario.Generate(sys.Store())
	if err != nil {
		t.Fatal(err)
	}
	id := sys.FileAlarm(rootcause.Alarm{
		Detector: "test",
		Interval: truth.Entries[0].Interval,
		Kind:     detector.KindPortScan,
		Meta: []detector.MetaItem{
			{Feature: flow.FeatSrcIP, Value: uint32(scanner)},
		},
	})
	return sys, id
}

// TestJobStressDeterministic is the acceptance stress test: 32
// concurrent submissions against WithJobWorkers(4) all complete, and
// every per-job result is identical to the synchronous Extract outcome.
func TestJobStressDeterministic(t *testing.T) {
	sys, alarmID := newScanSystem(t,
		rootcause.WithJobWorkers(4), rootcause.WithJobQueueDepth(64))

	// Synchronous baseline first — the job path must reproduce it bit
	// for bit.
	want, err := sys.Extract(t.Context(), alarmID)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Itemsets) == 0 {
		t.Fatal("baseline extraction produced no itemsets")
	}

	const n = 32
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id, err := sys.Submit(rootcause.JobRequest{AlarmID: alarmID})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		jr, err := sys.Wait(t.Context(), id)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if jr.Status.State != rootcause.JobDone {
			t.Fatalf("job %d state = %s", i, jr.Status.State)
		}
		if !reflect.DeepEqual(jr.Result.Itemsets, want.Itemsets) {
			t.Fatalf("job %d itemsets diverge from synchronous Extract:\n got %v\nwant %v",
				i, jr.Result.Itemsets, want.Itemsets)
		}
		if jr.Result.CandidateFlows != want.CandidateFlows ||
			jr.Result.CandidatePackets != want.CandidatePackets {
			t.Fatalf("job %d candidate totals diverge", i)
		}
	}
}

// TestSubmitQueueFullRejected: with one worker parked and the queue at
// depth, the next submission is rejected immediately — not blocked.
func TestSubmitQueueFullRejected(t *testing.T) {
	sys := newEmptySystem(t, rootcause.WithJobWorkers(1), rootcause.WithJobQueueDepth(1))
	ids := fileAlarms(sys, 3)
	release := make(chan struct{})
	defer close(release)
	block := rootcause.WithExtractFunc(func(ctx context.Context, a *rootcause.Alarm) (*rootcause.Result, error) {
		select {
		case <-release:
			return &rootcause.Result{Alarm: *a}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})

	runningID, err := sys.Submit(rootcause.JobRequest{AlarmID: ids[0]}, block)
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, sys, runningID, rootcause.JobRunning)
	if _, err := sys.Submit(rootcause.JobRequest{AlarmID: ids[1]}, block); err != nil {
		t.Fatalf("queued submission rejected: %v", err)
	}
	start := time.Now()
	_, err = sys.Submit(rootcause.JobRequest{AlarmID: ids[2]}, block)
	if !errors.Is(err, rootcause.ErrJobQueueFull) {
		t.Fatalf("err = %v, want ErrJobQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %s — admission control must not block", d)
	}
}

// TestCancelJobWhileQueued: a queued job cancels in place; its
// extraction never starts.
func TestCancelJobWhileQueued(t *testing.T) {
	sys := newEmptySystem(t, rootcause.WithJobWorkers(1), rootcause.WithJobQueueDepth(2))
	ids := fileAlarms(sys, 2)
	release := make(chan struct{})
	ran := make(chan string, 2)
	fn := rootcause.WithExtractFunc(func(ctx context.Context, a *rootcause.Alarm) (*rootcause.Result, error) {
		ran <- a.ID
		select {
		case <-release:
			return &rootcause.Result{Alarm: *a}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	running, err := sys.Submit(rootcause.JobRequest{AlarmID: ids[0]}, fn)
	if err != nil {
		t.Fatal(err)
	}
	waitJobState(t, sys, running, rootcause.JobRunning)
	queued, err := sys.Submit(rootcause.JobRequest{AlarmID: ids[1]}, fn)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.CancelJob(queued); err != nil {
		t.Fatal(err)
	}
	st, err := sys.Job(queued)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != rootcause.JobCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	// Release the runner and let the pool drain; the canceled job's
	// extraction must never have started.
	close(release)
	if _, err := sys.Wait(t.Context(), running); err != nil {
		t.Fatal(err)
	}
	for {
		select {
		case got := <-ran:
			if got == ids[1] {
				t.Fatal("canceled-while-queued extraction ran")
			}
			continue
		default:
		}
		break
	}
}

// TestCancelJobMidExtraction: CancelJob propagates through the job
// context into the extraction function — the exact context the miner
// loop and store scans check every stride.
func TestCancelJobMidExtraction(t *testing.T) {
	sys := newEmptySystem(t, rootcause.WithJobWorkers(1))
	ids := fileAlarms(sys, 1)
	entered := make(chan struct{})
	var once sync.Once
	id, err := sys.Submit(rootcause.JobRequest{AlarmID: ids[0]},
		rootcause.WithExtractFunc(func(ctx context.Context, a *rootcause.Alarm) (*rootcause.Result, error) {
			once.Do(func() { close(entered) })
			<-ctx.Done() // the mining loop's cancellation point
			return nil, ctx.Err()
		}))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	if err := sys.CancelJob(id); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wait(t.Context(), id); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait err = %v, want context.Canceled", err)
	}
	st, err := sys.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != rootcause.JobCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
}

// TestBatchJob: a batch job retains per-alarm outcomes in submission
// order, streams them through the WithBatchResults sink in completion
// order, and reports completed/total progress.
func TestBatchJob(t *testing.T) {
	sys := newEmptySystem(t, rootcause.WithJobWorkers(2))
	ids := fileAlarms(sys, 3)
	submitted := append(append([]string{}, ids...), "404")
	// The first alarm blocks until the sink has seen another outcome, so
	// a fast alarm submitted later must stream before it.
	slow := ids[0]
	release := make(chan struct{})
	var once sync.Once
	var mu sync.Mutex
	var streamed []string
	sink := func(r rootcause.ExtractResult) {
		mu.Lock()
		streamed = append(streamed, r.AlarmID)
		mu.Unlock()
		once.Do(func() { close(release) })
	}
	id, err := sys.Submit(rootcause.JobRequest{AlarmIDs: submitted},
		rootcause.WithBatchResults(sink),
		rootcause.WithExtractFunc(func(ctx context.Context, a *rootcause.Alarm) (*rootcause.Result, error) {
			if a.ID == slow {
				<-release
			}
			return &rootcause.Result{Alarm: *a}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	jr, err := sys.Wait(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Status.Kind != rootcause.JobKindExtractBatch {
		t.Fatalf("kind = %s", jr.Status.Kind)
	}
	if len(jr.Batch) != len(submitted) {
		t.Fatalf("%d outcomes, want %d", len(jr.Batch), len(submitted))
	}
	for i, r := range jr.Batch {
		if r.AlarmID != submitted[i] {
			t.Fatalf("outcome %d is %q, want submission order %q", i, r.AlarmID, submitted[i])
		}
	}
	if jr.Batch[3].Err == nil || !errors.Is(jr.Batch[3].Err, alarmdb.ErrNotFound) {
		t.Fatalf("unknown alarm outcome err = %v", jr.Batch[3].Err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(streamed) != len(submitted) {
		t.Fatalf("sink saw %d results, want %d", len(streamed), len(submitted))
	}
	if streamed[0] == slow {
		t.Fatalf("sink order %v starts with the slow alarm %s, want completion order", streamed, slow)
	}
	if jr.Status.Progress.Completed != len(submitted) || jr.Status.Progress.Total != len(submitted) {
		t.Fatalf("final progress = %+v", jr.Status.Progress)
	}
}

// TestSubmitValidation: malformed requests and unknown miners fail at
// submission time, before a job is admitted.
func TestSubmitValidation(t *testing.T) {
	sys := newEmptySystem(t)
	ids := fileAlarms(sys, 1)
	if _, err := sys.Submit(rootcause.JobRequest{}); err == nil {
		t.Fatal("empty request must be rejected")
	}
	if _, err := sys.Submit(rootcause.JobRequest{AlarmID: ids[0], AlarmIDs: ids}); err == nil {
		t.Fatal("ambiguous request must be rejected")
	}
	if _, err := sys.Submit(rootcause.JobRequest{AlarmIDs: []string{}}); err == nil {
		t.Fatal("empty batch must be rejected")
	}
	if _, err := sys.Submit(rootcause.JobRequest{AlarmID: ids[0]},
		rootcause.WithMiner("frobnicator")); err == nil {
		t.Fatal("unknown miner must fail the submission, not the job")
	}
	if len(sys.Jobs()) != 0 {
		t.Fatalf("rejected submissions must not create jobs: %v", sys.Jobs())
	}
}

// TestWaitSurfacesDomainErrors: a failed job's error keeps its identity
// across the job boundary (the HTTP layer branches on it for 404s).
func TestWaitSurfacesDomainErrors(t *testing.T) {
	sys := newEmptySystem(t)
	id, err := sys.Submit(rootcause.JobRequest{AlarmID: "404"})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := sys.Wait(t.Context(), id)
	if !errors.Is(werr, alarmdb.ErrNotFound) {
		t.Fatalf("Wait err = %v, want alarmdb.ErrNotFound", werr)
	}
	st, err := sys.Job(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != rootcause.JobFailed || st.Error == "" {
		t.Fatalf("status = %+v", st)
	}
	// JobResult for a failed job surfaces the same error.
	if _, rerr := sys.JobResult(id); !errors.Is(rerr, alarmdb.ErrNotFound) {
		t.Fatalf("JobResult err = %v", rerr)
	}
}

// TestJobProgressObserver: WithProgress receives the engine's sampled
// observations during a real extraction job, and the final status
// carries the last sample.
func TestJobProgressObserver(t *testing.T) {
	sys, alarmID := newScanSystem(t)
	var mu sync.Mutex
	phases := map[string]bool{}
	id, err := sys.Submit(rootcause.JobRequest{AlarmID: alarmID},
		rootcause.WithProgress(func(p rootcause.ExtractionProgress) {
			mu.Lock()
			phases[p.Phase] = true
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	jr, err := sys.Wait(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, want := range []string{"candidates", "mine-flows", "rank"} {
		if !phases[want] {
			t.Fatalf("phase %q never observed (got %v)", want, phases)
		}
	}
	if jr.Status.Progress.Phase == "" {
		t.Fatalf("final status carries no progress: %+v", jr.Status)
	}
}

// TestWatchJob: the subscription stream ends with the terminal
// snapshot.
func TestWatchJob(t *testing.T) {
	sys, alarmID := newScanSystem(t)
	id, err := sys.Submit(rootcause.JobRequest{AlarmID: alarmID})
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := sys.WatchJob(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var last rootcause.JobStatus
	n := 0
	for st := range ch {
		last = st
		n++
	}
	if n == 0 {
		t.Fatal("no snapshots received")
	}
	if last.State != rootcause.JobDone {
		t.Fatalf("terminal snapshot = %+v", last)
	}
}

// TestResultTTLThroughSystem: WithResultTTL expires retained results.
func TestResultTTLThroughSystem(t *testing.T) {
	sys := newEmptySystem(t, rootcause.WithResultTTL(50*time.Millisecond))
	ids := fileAlarms(sys, 1)
	id, err := sys.Submit(rootcause.JobRequest{AlarmID: ids[0]},
		rootcause.WithExtractFunc(func(ctx context.Context, a *rootcause.Alarm) (*rootcause.Result, error) {
			return &rootcause.Result{Alarm: *a}, nil
		}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Wait(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.JobResult(id); err != nil {
		t.Fatalf("fresh result: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := sys.JobResult(id); errors.Is(err, rootcause.ErrJobNotFound) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("result never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitJobState polls until the job reaches the wanted state.
func waitJobState(t *testing.T, sys *rootcause.System, id string, want rootcause.JobState) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := sys.Job(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := sys.Job(id)
	t.Fatalf("job %s never reached %s (state %s)", id, want, st.State)
}
