package jobs

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

// blockingTask returns a task that parks until release is closed (or its
// context is canceled), then returns val.
func blockingTask(release <-chan struct{}, val any) Task {
	return func(ctx context.Context, _ func(Progress)) (any, error) {
		select {
		case <-release:
			return val, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// instantTask returns val immediately.
func instantTask(val any) Task {
	return func(context.Context, func(Progress)) (any, error) { return val, nil }
}

func TestLifecycleDone(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	id, err := m.Submit("extract", instantTask(42))
	if err != nil {
		t.Fatal(err)
	}
	_, st, err := m.WaitResult(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	if st.StartedAt == nil || st.FinishedAt == nil {
		t.Fatalf("missing timestamps: %+v", st)
	}
	val, st2, err := m.Result(id)
	if err != nil || val != 42 || st2.State != StateDone {
		t.Fatalf("Result = %v, %v, %v", val, st2, err)
	}
}

func TestLifecycleFailed(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	sentinel := errors.New("boom")
	id, _ := m.Submit("extract", func(context.Context, func(Progress)) (any, error) {
		return nil, sentinel
	})
	// WaitResult and Result surface the stored error for errors.Is
	// branching.
	_, st, err := m.WaitResult(context.Background(), id)
	if !errors.Is(err, sentinel) {
		t.Fatalf("WaitResult err = %v, want the task's error", err)
	}
	if st.State != StateFailed || st.Error != "boom" {
		t.Fatalf("status = %+v", st)
	}
	if _, _, err := m.Result(id); !errors.Is(err, sentinel) {
		t.Fatalf("Result err = %v, want the task's error", err)
	}
}

// TestQueueFullRejectsWithoutBlocking: with one worker parked and the
// queue at depth, further submissions fail fast with ErrQueueFull.
func TestQueueFullRejectsWithoutBlocking(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)

	running, _ := m.Submit("extract", blockingTask(release, nil))
	// Give the worker a moment to pick up the first job so the queue
	// slot is truly free for the second.
	waitState(t, m, running, StateRunning)
	if _, err := m.Submit("extract", blockingTask(release, nil)); err != nil {
		t.Fatalf("queued submission rejected: %v", err)
	}
	start := time.Now()
	_, err := m.Submit("extract", blockingTask(release, nil))
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %s — Submit must not block", d)
	}
}

// TestCancelWhileQueued: a queued job is canceled in place and its task
// never runs.
func TestCancelWhileQueued(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 2})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)

	running, _ := m.Submit("extract", blockingTask(release, nil))
	waitState(t, m, running, StateRunning)
	ran := false
	queued, _ := m.Submit("extract", func(context.Context, func(Progress)) (any, error) {
		ran = true
		return nil, nil
	})
	if err := m.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	_, st, err := m.WaitResult(context.Background(), queued)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitResult err = %v, want context.Canceled", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	if st.StartedAt != nil {
		t.Fatal("canceled-while-queued job must never start")
	}
	// Drain the pipeline: the worker must skip the canceled job.
	if ran {
		t.Fatal("canceled job's task ran")
	}
	if _, _, err := m.Result(queued); !errors.Is(err, context.Canceled) {
		t.Fatalf("Result err = %v, want context.Canceled", err)
	}
}

// TestCancelWhileRunning: cancel propagates through the job context into
// the task, which wound down with ctx.Err() → canceled state.
func TestCancelWhileRunning(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	release := make(chan struct{}) // never closed: only cancel stops the task
	id, _ := m.Submit("extract", blockingTask(release, nil))
	waitState(t, m, id, StateRunning)
	if err := m.Cancel(id); err != nil {
		t.Fatal(err)
	}
	_, st, err := m.WaitResult(context.Background(), id)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("WaitResult err = %v, want context.Canceled", err)
	}
	if st.State != StateCanceled {
		t.Fatalf("state = %s, want canceled", st.State)
	}
	// Canceling a terminal job is ErrDone.
	if err := m.Cancel(id); !errors.Is(err, ErrDone) {
		t.Fatalf("second cancel = %v, want ErrDone", err)
	}
}

// TestCancelQueuedFreesAdmissionSlot: canceling a queued job releases
// its queue slot immediately — the next submission is admitted even
// though the worker is still busy.
func TestCancelQueuedFreesAdmissionSlot(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	running, _ := m.Submit("extract", blockingTask(release, nil))
	waitState(t, m, running, StateRunning)
	queued, err := m.Submit("extract", blockingTask(release, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("extract", blockingTask(release, nil)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("pre-cancel submit err = %v, want ErrQueueFull", err)
	}
	if err := m.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("extract", blockingTask(release, nil)); err != nil {
		t.Fatalf("post-cancel submit rejected: %v — canceled job still holds the slot", err)
	}
}

func TestCancelUnknown(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	if err := m.Cancel("404"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// TestResultTTLEviction: a finished job is fetchable until the TTL
// passes on the fake clock, then evicted.
func TestResultTTLEviction(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_300_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	m := New(Config{Workers: 1, ResultTTL: time.Minute, now: clock})
	defer m.Close()
	id, _ := m.Submit("extract", instantTask("v"))
	if _, _, err := m.WaitResult(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Result(id); err != nil {
		t.Fatalf("fresh result: %v", err)
	}
	mu.Lock()
	now = now.Add(59 * time.Second)
	mu.Unlock()
	if _, _, err := m.Result(id); err != nil {
		t.Fatalf("pre-TTL result: %v", err)
	}
	mu.Lock()
	now = now.Add(2 * time.Second)
	mu.Unlock()
	if _, _, err := m.Result(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-TTL result err = %v, want ErrNotFound", err)
	}
	if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("post-TTL get err = %v, want ErrNotFound", err)
	}
}

// TestResultLRUEviction: beyond maxResults the least recently fetched
// terminal job is evicted first.
func TestResultLRUEviction(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_300_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		// Advance a nanosecond per read so every touch is ordered.
		now = now.Add(1)
		return now
	}
	m := New(Config{Workers: 1, now: clock})
	defer m.Close()
	var ids []string
	for i := 0; i < maxResults; i++ {
		id, _ := m.Submit("extract", instantTask(i))
		if _, _, err := m.WaitResult(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Touch the oldest job so the second oldest becomes LRU.
	if _, _, err := m.Result(ids[0]); err != nil {
		t.Fatal(err)
	}
	id3, _ := m.Submit("extract", instantTask(3))
	if _, _, err := m.WaitResult(context.Background(), id3); err != nil {
		t.Fatal(err)
	}
	// The cap is full: ids[1] (least recently touched) must be gone,
	// ids[0] and id3 retained.
	if _, _, err := m.Result(ids[1]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("LRU job err = %v, want ErrNotFound", err)
	}
	if _, _, err := m.Result(ids[0]); err != nil {
		t.Fatalf("recently touched job evicted: %v", err)
	}
	if _, _, err := m.Result(id3); err != nil {
		t.Fatalf("newest job evicted: %v", err)
	}
}

// TestTransientSubmit: a transient job delivers its outcome to the
// waiter already on the line but never enters retention — no ID is left
// behind to fetch it with.
func TestTransientSubmit(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	id, err := m.SubmitTransient("extract", instantTask("v"))
	if err != nil {
		t.Fatal(err)
	}
	val, st, err := m.WaitResult(context.Background(), id)
	if err != nil || val != "v" || st.State != StateDone {
		t.Fatalf("WaitResult = %v, %v, %v", val, st, err)
	}
	if _, _, err := m.Result(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("transient job retained: err = %v, want ErrNotFound", err)
	}
	if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("transient job listed after finish: %v", err)
	}
}

// TestWaitResultSurvivesEviction: a waiter already blocked in
// WaitResult receives the outcome even when retention evicts the job's
// ID right after the terminal transition — the waiter reads the job
// record it holds, not the registry.
func TestWaitResultSurvivesEviction(t *testing.T) {
	var mu sync.Mutex
	now := time.Unix(1_300_000_000, 0)
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	m := New(Config{Workers: 1, ResultTTL: time.Minute, now: clock})
	defer m.Close()
	gate := make(chan struct{})
	id, _ := m.Submit("extract", func(ctx context.Context, _ func(Progress)) (any, error) {
		<-gate
		return "kept", nil
	})
	waitState(t, m, id, StateRunning)
	type outcome struct {
		val any
		st  Status
		err error
	}
	got := make(chan outcome, 1)
	entered := make(chan struct{})
	go func() {
		close(entered)
		val, st, err := m.WaitResult(context.Background(), id)
		got <- outcome{val, st, err}
	}()
	// The waiter's registry lookup cannot fail while the job is running
	// (running jobs are never pruned); give the goroutine ample time to
	// get past it before letting the job finish and evicting the ID.
	<-entered
	time.Sleep(100 * time.Millisecond)
	close(gate)
	if _, _, err := m.WaitResult(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("job survived TTL: %v", err)
	}
	out := <-got
	if out.err != nil || out.val != "kept" || out.st.State != StateDone {
		t.Fatalf("WaitResult across eviction = %v, %v, %v", out.val, out.st, out.err)
	}
}

// TestResultNotDone: fetching an unfinished job is ErrNotDone, not a
// phantom result.
func TestResultNotDone(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	id, _ := m.Submit("extract", blockingTask(release, nil))
	if _, _, err := m.Result(id); !errors.Is(err, ErrNotDone) {
		t.Fatalf("err = %v, want ErrNotDone", err)
	}
}

// TestWaitHonorsContext: WaitResult returns promptly when the caller's context
// dies while the job is still running.
func TestWaitHonorsContext(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	id, _ := m.Submit("extract", blockingTask(release, nil))
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, _, err := m.WaitResult(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
}

// TestProgressAndSubscribe: progress samples reach Status and the
// subscriber stream, which closes after the terminal snapshot.
func TestProgressAndSubscribe(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	step := make(chan struct{})
	id, _ := m.Submit("extract", func(ctx context.Context, report func(Progress)) (any, error) {
		report(Progress{Phase: "candidates", Candidates: 100})
		<-step
		report(Progress{Phase: "mine-flows", TuningRound: 2, Itemsets: 5})
		return "ok", nil
	})
	ch, cancel, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	close(step)
	var last Status
	sawProgress := false
	for st := range ch {
		if st.Progress.Phase == "mine-flows" && st.Progress.TuningRound == 2 {
			sawProgress = true
		}
		last = st
	}
	if !sawProgress {
		t.Fatal("mining progress never reached the subscriber")
	}
	if last.State != StateDone {
		t.Fatalf("terminal snapshot state = %s, want done", last.State)
	}
	st, _ := m.Get(id)
	if st.Progress.Phase != "mine-flows" || st.Progress.Itemsets != 5 {
		t.Fatalf("status progress = %+v", st.Progress)
	}
}

// TestSubscribeTerminal: subscribing to a finished job yields exactly
// its final snapshot, then the channel closes.
func TestSubscribeTerminal(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	id, _ := m.Submit("extract", instantTask(nil))
	if _, _, err := m.WaitResult(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	st, ok := <-ch
	if !ok || st.State != StateDone {
		t.Fatalf("first = %v/%v", st, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel must close after the terminal snapshot")
	}
}

// TestUnsubscribeDetaches: a canceled subscription is removed so the
// manager stops fanning out to it.
func TestUnsubscribeDetaches(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	id, _ := m.Submit("extract", blockingTask(release, nil))
	_, cancel, err := m.Subscribe(id)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.subscribers(id); n != 1 {
		t.Fatalf("subscribers = %d, want 1", n)
	}
	cancel()
	if n := m.subscribers(id); n != 0 {
		t.Fatalf("subscribers after cancel = %d, want 0", n)
	}
	cancel() // idempotent
}

// TestCloseCancelsEverything: Close cancels queued and running jobs and
// rejects later submissions.
func TestCloseCancelsEverything(t *testing.T) {
	m := New(Config{Workers: 1, QueueDepth: 4})
	release := make(chan struct{})
	defer close(release)
	running, _ := m.Submit("extract", blockingTask(release, nil))
	waitState(t, m, running, StateRunning)
	queued, _ := m.Submit("extract", blockingTask(release, nil))
	m.Close()
	for _, id := range []string{running, queued} {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateCanceled {
			t.Fatalf("job %s state = %s, want canceled", id, st.State)
		}
	}
	if _, err := m.Submit("extract", instantTask(nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit err = %v, want ErrClosed", err)
	}
}

// TestListOrder: List returns newest submission first and includes all
// lifecycle states.
func TestListOrder(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := m.Submit("extract", blockingTask(release, i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("%d jobs listed", len(list))
	}
	for i, st := range list {
		if want := ids[len(ids)-1-i]; st.ID != want {
			t.Fatalf("list[%d] = %s, want %s", i, st.ID, want)
		}
	}
}

// TestStressManyJobs floods the manager well past the worker count and
// checks every job lands done with its own result.
func TestStressManyJobs(t *testing.T) {
	m := New(Config{Workers: 4, QueueDepth: 64})
	defer m.Close()
	const n = 48
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		id, err := m.Submit("extract", instantTask(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = id
	}
	for i, id := range ids {
		if _, _, err := m.WaitResult(context.Background(), id); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
		val, st, err := m.Result(id)
		if err != nil || st.State != StateDone {
			t.Fatalf("job %d: %v %v", i, st, err)
		}
		if val != i {
			t.Fatalf("job %d returned %v", i, val)
		}
	}
}

// waitState polls until the job reaches the state (or fails the test).
func waitState(t *testing.T, m *Manager, id string, want State) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (state %s)", id, want, st.State)
}

// TestIDsAreSequential pins the ID scheme the HTTP layer exposes.
func TestIDsAreSequential(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	prev := 0
	for i := 0; i < 3; i++ {
		id, err := m.Submit("extract", instantTask(nil))
		if err != nil {
			t.Fatal(err)
		}
		n, err := strconv.Atoi(id)
		if err != nil || n <= prev {
			t.Fatalf("id %q after %d", id, prev)
		}
		prev = n
	}
}

// TestSubmitNilTask rejects a nil task up front.
func TestSubmitNilTask(t *testing.T) {
	m := New(Config{Workers: 1})
	defer m.Close()
	if _, err := m.Submit("extract", nil); err == nil {
		t.Fatal("nil task must be rejected")
	}
}

// Example of the submit → wait → result flow.
func Example() {
	m := New(Config{Workers: 2})
	defer m.Close()
	id, _ := m.Submit("extract", func(ctx context.Context, report func(Progress)) (any, error) {
		report(Progress{Phase: "candidates"})
		return "ranked itemsets", nil
	})
	val, st, _ := m.WaitResult(context.Background(), id)
	fmt.Println(st.State, val)
	// Output: done ranked itemsets
}
