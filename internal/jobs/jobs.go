package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"
)

// State is a job lifecycle state.
type State string

// Job lifecycle: queued → running → done | failed | canceled. The three
// right-hand states are terminal.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Progress is the latest progress sample of a job. The zero value means
// "no progress reported yet". Fields are task-defined; the extraction
// tasks fill Phase/TuningRound/Candidates/Itemsets from the engine's
// sampled callback and batch tasks additionally count Completed/Total.
type Progress struct {
	// Phase names the stage the task is in (e.g. "candidates",
	// "mine-flows", "baseline").
	Phase string `json:"phase,omitempty"`
	// TuningRound is the self-tuning round within a mining phase.
	TuningRound int `json:"tuning_round,omitempty"`
	// Candidates counts candidate flows streamed so far.
	Candidates uint64 `json:"candidates,omitempty"`
	// Itemsets counts maximal itemsets mined so far.
	Itemsets int `json:"itemsets,omitempty"`
	// Completed/Total track batch jobs: alarms finished out of submitted.
	Completed int `json:"completed,omitempty"`
	Total     int `json:"total,omitempty"`
}

// Status is a point-in-time snapshot of one job, safe to serialize.
type Status struct {
	ID       string   `json:"id"`
	Kind     string   `json:"kind"`
	State    State    `json:"state"`
	Progress Progress `json:"progress"`

	SubmittedAt time.Time  `json:"submitted_at"`
	StartedAt   *time.Time `json:"started_at,omitempty"`
	FinishedAt  *time.Time `json:"finished_at,omitempty"`

	// Error is the failure (or cancellation) message of a terminal job.
	Error string `json:"error,omitempty"`
}

// Task is the unit of work a job runs. ctx is canceled by Cancel and by
// manager shutdown; report publishes a progress sample. The returned
// value is retained (per the TTL/LRU policy) for Result.
type Task func(ctx context.Context, report func(Progress)) (any, error)

// Sentinel errors of the manager API.
var (
	// ErrQueueFull rejects a submission when the queue is at depth — the
	// admission-control signal the HTTP layer maps to 429.
	ErrQueueFull = errors.New("jobs: submission queue full")
	// ErrNotFound marks an unknown (or already evicted) job ID.
	ErrNotFound = errors.New("jobs: job not found")
	// ErrNotDone marks a Result fetch on a job that has not finished.
	ErrNotDone = errors.New("jobs: job not finished")
	// ErrDone marks a Cancel of a job that already reached a terminal
	// state.
	ErrDone = errors.New("jobs: job already finished")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("jobs: manager closed")
)

// Config configures a Manager. Zero values inherit defaults.
type Config struct {
	// Workers bounds how many jobs run concurrently (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds how many jobs may wait beyond the running ones;
	// a submission beyond it fails with ErrQueueFull (default 64).
	QueueDepth int
	// ResultTTL is how long a terminal job stays fetchable (default 15
	// minutes). Expiry is checked lazily on manager calls.
	ResultTTL time.Duration
	// now is the clock seam for retention tests.
	now func() time.Time
}

// Defaults for Config zero values.
const (
	DefaultQueueDepth = 64
	DefaultResultTTL  = 15 * time.Minute
)

// maxResults caps how many terminal jobs are retained; beyond it the
// least recently touched one is evicted. The package doc gives the
// reason for the value.
const maxResults = 256

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = DefaultQueueDepth
	}
	if c.ResultTTL <= 0 {
		c.ResultTTL = DefaultResultTTL
	}
	if c.now == nil {
		c.now = time.Now
	}
}

// job is the manager-internal record of one submission.
type job struct {
	id   string
	kind string
	task Task

	ctx    context.Context
	cancel context.CancelFunc

	state       State
	canceled    bool // Cancel was requested (distinguishes canceled from failed)
	transient   bool // drop from the registry once the outcome is consumed
	progress    Progress
	submittedAt time.Time
	startedAt   *time.Time
	finishedAt  *time.Time
	lastTouch   time.Time // LRU key: last submission/result access

	result any
	err    error

	done chan struct{} // closed on terminal transition
	subs []chan Status // progress subscribers (SSE)
}

// Manager runs jobs on a bounded worker pool with admission control and
// retains terminal jobs for later result fetches. Safe for concurrent
// use.
type Manager struct {
	cfg Config

	baseCtx context.Context
	stop    context.CancelFunc
	wg      sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond // signaled on pending push and on Close
	pending []*job     // FIFO of queued jobs; its length IS the admission gauge
	closed  bool
	nextID  int
	jobs    map[string]*job
}

// New starts a manager with cfg.Workers worker goroutines.
func New(cfg Config) *Manager {
	cfg.fill()
	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:     cfg,
		baseCtx: ctx,
		stop:    cancel,
		jobs:    map[string]*job{},
		nextID:  1,
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Workers returns how many jobs the manager runs concurrently: the
// configured count, or GOMAXPROCS when none was set.
func (m *Manager) Workers() int { return m.cfg.Workers }

// Close cancels every queued and running job, waits for the workers to
// wind down, and rejects further submissions. Retained results stay
// readable until the manager is dropped.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	// Cancel queued jobs in place so their waiters release immediately;
	// running jobs are canceled through the base context below.
	for _, j := range m.pending {
		j.canceled = true
		m.finishLocked(j, nil, context.Canceled)
	}
	m.pending = nil
	m.cond.Broadcast()
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
}

// Submit enqueues a task and returns its job ID. It never blocks: a full
// queue fails with ErrQueueFull, a closed manager with ErrClosed.
func (m *Manager) Submit(kind string, task Task) (string, error) {
	return m.submit(kind, task, false)
}

// SubmitTransient is Submit for jobs whose only consumer is a waiter on
// the line (the synchronous wrapper endpoints): the job is dropped from
// the registry as soon as its outcome is consumed through
// Result/WaitResult, instead of sitting in retention for the full TTL
// with nobody left to fetch it. An abandoned transient job (the waiter
// never read the outcome) still expires through the normal TTL/LRU
// policy.
func (m *Manager) SubmitTransient(kind string, task Task) (string, error) {
	return m.submit(kind, task, true)
}

func (m *Manager) submit(kind string, task Task, transient bool) (string, error) {
	if task == nil {
		return "", errors.New("jobs: nil task")
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return "", ErrClosed
	}
	m.pruneLocked()
	if len(m.pending) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		return "", fmt.Errorf("%w (depth %d)", ErrQueueFull, m.cfg.QueueDepth)
	}
	now := m.cfg.now()
	ctx, cancel := context.WithCancel(m.baseCtx)
	j := &job{
		id:          strconv.Itoa(m.nextID),
		kind:        kind,
		task:        task,
		transient:   transient,
		ctx:         ctx,
		cancel:      cancel,
		state:       StateQueued,
		submittedAt: now,
		lastTouch:   now,
		done:        make(chan struct{}),
	}
	m.nextID++
	m.jobs[j.id] = j
	m.pending = append(m.pending, j)
	m.cond.Signal()
	m.mu.Unlock()
	return j.id, nil
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked()
	j, ok := m.jobs[id]
	if !ok {
		return Status{}, ErrNotFound
	}
	return statusLocked(j), nil
}

// List returns status snapshots of every known job (queued, running and
// retained terminal ones), newest submission first.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked()
	out := make([]Status, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, statusLocked(j))
	}
	sort.Slice(out, func(i, k int) bool {
		a, _ := strconv.Atoi(out[i].ID)
		b, _ := strconv.Atoi(out[k].ID)
		return a > b
	})
	return out
}

// Cancel requests cancellation. A queued job is canceled in place and
// never runs; a running job has its context canceled and reaches the
// canceled state when its task returns. Canceling a terminal job is
// ErrDone, an unknown one ErrNotFound.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ErrNotFound
	}
	switch {
	case j.state.Terminal():
		return ErrDone
	case j.state == StateQueued:
		// Canceled in place AND removed from the pending queue, so the
		// admission slot frees immediately (a canceled submission must
		// not keep causing ErrQueueFull).
		j.canceled = true
		for i, p := range m.pending {
			if p == j {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		m.finishLocked(j, nil, context.Canceled)
	default: // running
		j.canceled = true
		j.cancel()
	}
	return nil
}

// WaitResult blocks until the job reaches a terminal state, then returns
// its outcome like Result; it returns ctx.Err() if ctx dies first. It
// cannot lose the race against retention: the outcome is read from the
// job record the waiter already holds, so a concurrent TTL expiry or LRU
// eviction of the ID never turns a finished job into ErrNotFound. Like
// Result, a failed or canceled job returns its stored error with
// identity preserved, and a transient job is consumed.
func (m *Manager) WaitResult(ctx context.Context, id string) (any, Status, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, Status{}, ErrNotFound
	}
	done := j.done
	m.mu.Unlock()
	select {
	case <-ctx.Done():
		return nil, Status{}, ctx.Err()
	case <-done:
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st := statusLocked(j)
	if j.transient {
		delete(m.jobs, j.id) // consumed: nobody comes back for it
	}
	if j.err != nil {
		return nil, st, j.err
	}
	return j.result, st, nil
}

// Result returns the value a done job's task produced, along with the
// final status. A failed or canceled job returns its stored error (so
// callers can errors.Is against domain sentinels); a job that has not
// finished returns ErrNotDone. Fetching refreshes the job's LRU
// position.
func (m *Manager) Result(id string) (any, Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pruneLocked()
	j, ok := m.jobs[id]
	if !ok {
		return nil, Status{}, ErrNotFound
	}
	if !j.state.Terminal() {
		return nil, statusLocked(j), ErrNotDone
	}
	j.lastTouch = m.cfg.now()
	st := statusLocked(j)
	if j.transient {
		delete(m.jobs, j.id) // consumed: nobody comes back for it
	}
	if j.err != nil {
		return nil, st, j.err
	}
	return j.result, st, nil
}

// Subscribe returns a channel of status snapshots for one job: the
// current status immediately, then one per state or progress change,
// closed after the terminal snapshot. The returned cancel function
// detaches the subscriber (safe to call multiple times); always call it,
// or the channel leaks until the job finishes. Slow subscribers never
// block the manager — intermediate snapshots are dropped oldest-first,
// the terminal one is always delivered.
func (m *Manager) Subscribe(id string) (<-chan Status, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Status, 16)
	ch <- statusLocked(j)
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	j.subs = append(j.subs, ch)
	cancel := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, c := range j.subs {
			if c == ch {
				j.subs = append(j.subs[:i], j.subs[i+1:]...)
				close(ch)
				break
			}
		}
	}
	return ch, cancel, nil
}

// worker pulls queued jobs until manager shutdown. Cancellation of a
// queued job removes it from the pending queue directly, so a popped
// job is always ready to run.
func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pending) == 0 { // closed and drained
			m.mu.Unlock()
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		m.mu.Unlock()
		m.run(j)
		m.mu.Lock()
	}
}

// run executes one job through its lifecycle.
func (m *Manager) run(j *job) {
	m.mu.Lock()
	if j.state != StateQueued { // canceled while queued
		m.mu.Unlock()
		return
	}
	j.state = StateRunning
	t := m.cfg.now()
	j.startedAt = &t
	task := j.task // captured under mu; finishLocked clears the field
	m.notifyLocked(j)
	m.mu.Unlock()

	val, err := task(j.ctx, func(p Progress) { m.setProgress(j, p) })

	m.mu.Lock()
	m.finishLocked(j, val, err)
	m.mu.Unlock()
}

// finishLocked moves a job to its terminal state, releases waiters and
// subscribers, and enters it into retention. Caller holds m.mu.
func (m *Manager) finishLocked(j *job, val any, err error) {
	t := m.cfg.now()
	j.finishedAt = &t
	j.lastTouch = t
	// Drop the task closure: it can pin arbitrarily large caller state
	// (result sinks, ResponseWriters) that must not live for the whole
	// retention TTL.
	j.task = nil
	switch {
	case err == nil:
		j.state = StateDone
		j.result = val
	case j.canceled || j.ctx.Err() != nil:
		j.state = StateCanceled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	j.cancel() // release the job context's resources
	close(j.done)
	m.notifyLocked(j)
	for _, ch := range j.subs {
		close(ch)
	}
	j.subs = nil
	m.pruneLocked()
}

// setProgress records a progress sample and fans it out.
func (m *Manager) setProgress(j *job, p Progress) {
	m.mu.Lock()
	if j.state == StateRunning {
		j.progress = p
		m.notifyLocked(j)
	}
	m.mu.Unlock()
}

// notifyLocked pushes the current snapshot to every subscriber without
// ever blocking: a full subscriber buffer drops its oldest snapshot to
// make room, so the latest state always lands. Caller holds m.mu.
func (m *Manager) notifyLocked(j *job) {
	if len(j.subs) == 0 {
		return
	}
	st := statusLocked(j)
	for _, ch := range j.subs {
		select {
		case ch <- st:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- st:
			default:
			}
		}
	}
}

// pruneLocked evicts terminal jobs past their TTL, then applies the LRU
// cap over the remainder. Caller holds m.mu.
func (m *Manager) pruneLocked() {
	now := m.cfg.now()
	var terminal []*job
	for id, j := range m.jobs {
		if !j.state.Terminal() {
			continue
		}
		if j.finishedAt != nil && now.Sub(*j.finishedAt) >= m.cfg.ResultTTL {
			delete(m.jobs, id)
			continue
		}
		terminal = append(terminal, j)
	}
	if len(terminal) <= maxResults {
		return
	}
	sort.Slice(terminal, func(i, k int) bool {
		return terminal[i].lastTouch.Before(terminal[k].lastTouch)
	})
	for _, j := range terminal[:len(terminal)-maxResults] {
		delete(m.jobs, j.id)
	}
}

// statusLocked snapshots a job. Caller holds m.mu.
func statusLocked(j *job) Status {
	st := Status{
		ID:          j.id,
		Kind:        j.kind,
		State:       j.state,
		Progress:    j.progress,
		SubmittedAt: j.submittedAt,
	}
	if j.startedAt != nil {
		t := *j.startedAt
		st.StartedAt = &t
	}
	if j.finishedAt != nil {
		t := *j.finishedAt
		st.FinishedAt = &t
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	return st
}
