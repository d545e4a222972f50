// Package rootcause is the public API of the anomaly root-cause analysis
// system reproduced from "Automating Root-Cause Analysis of Network
// Anomalies using Frequent Itemset Mining" (Paredes-Oliva et al.,
// SIGCOMM 2010).
//
// It wires together the components of the paper's Figure 1 architecture:
//
//	detectors ──▶ alarm DB ──▶ extraction engine ◀──▶ flow store (NfDump)
//	                               │
//	                               ▼
//	                     ranked itemsets (Table 1)
//
// A System owns a flow store (internal/nfstore, the NfDump substitute)
// and an alarm database. Detectors — the histogram/KL detector of Kind et
// al., the PCA subspace detector of Lakhina et al., or the simulated
// NetReflex — scan the store and file alarms; Extract runs the paper's
// extended Apriori (dual flow/packet support, self-tuning minimum
// support) for one alarm and returns the ranked itemsets summarizing the
// anomalous flows, each carrying a drill-down filter for the raw flows.
//
// # Contexts
//
// Every synchronous operation that touches the flow store takes a
// context.Context first. Cancellation is honored inside the hot paths —
// segment scans and the Apriori/FP-growth mining loops — so a deadline
// or cancel aborts a long analysis promptly with ctx.Err(). Jobs run
// under the job manager's context instead; CancelJob aborts one.
//
// # Pluggable detectors
//
// Detectors live in a registry. The built-ins ("netreflex", "histogram",
// "pca") self-register; external detector implementations plug in via
// RegisterDetector and are then usable through System.Detect and listed
// by DetectorNames — the paper's system "can be integrated with any
// anomaly detection system that provides these data". Each built-in
// runs one fixed configuration, the evaluation's; a tuned detector is an
// external Detector registered under its own name. Per-call extraction
// configuration goes through functional options:
//
//	ids, err := sys.Detect(ctx, "histogram", span)
//	res, err := sys.Extract(ctx, id,
//	    rootcause.WithExtractionOptions(opts))
//
// # Batch extraction
//
// A batch is a job: Submit(JobRequest{AlarmIDs: ids}) fans the alarms
// out as wide as the job manager's worker count (WithJobWorkers),
// WithBatchResults streams each outcome as it completes, and Wait
// collects them in submission order:
//
//	id, err := sys.Submit(rootcause.JobRequest{AlarmIDs: ids},
//	    rootcause.WithBatchResults(func(r rootcause.ExtractResult) { ... }))
//	res, err := sys.Wait(ctx, id) // res.Batch
//
// # Extraction jobs
//
// Extract holds the caller for the whole self-tuning mining run; the job
// API decouples the two. Submit enqueues an extraction (or a batch) on
// the system's job manager — a bounded worker pool with admission
// control — and returns immediately with a job ID:
//
//	id, err := sys.Submit(rootcause.JobRequest{AlarmID: alarmID},
//	    rootcause.WithProgress(func(p rootcause.ExtractionProgress) { ... }))
//	res, err := sys.Wait(ctx, id) // or poll sys.Job(id) / fetch sys.JobResult(id)
//
// Job, Jobs, CancelJob, WatchJob and JobResult observe and steer the
// lifecycle (queued → running → done | failed | canceled). A full queue
// rejects the submission with ErrJobQueueFull instead of blocking;
// terminal jobs are retained for JobResult until WithResultTTL expires
// them (or the retention cap evicts the least recently fetched).
// WithJobWorkers and WithJobQueueDepth size the manager at Create/Open.
//
// # Query engine
//
// The flow store plans every scan against per-segment zone-map sidecars:
// segments a filter provably cannot match are skipped unopened, the
// survivors are scanned by a bounded worker pool whose results merge back
// in bin order, and whole-segment aggregations are answered from the
// sidecars alone. The pool is min(GOMAXPROCS, 8) wide; QueryStats
// exposes the pruning counters. Stores written before the
// sidecar format existed upgrade themselves lazily as they are scanned.
//
// See examples/ for runnable end-to-end programs and DESIGN.md for the
// system inventory.
package rootcause

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alarmdb"
	"repro/internal/core"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/jobs"
	"repro/internal/miner"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
	"repro/internal/shardstore"

	// Built-in detectors self-register into the detector registry.
	_ "repro/internal/histogram"
	_ "repro/internal/netreflex"
	_ "repro/internal/pca"
)

// Re-exported types: the façade exposes the domain vocabulary without
// forcing users through internal package paths.
type (
	// Record is one NetFlow-style flow record.
	Record = flow.Record
	// Interval is a half-open time window in Unix seconds.
	Interval = flow.Interval
	// Alarm is a detector alarm with meta-data.
	Alarm = detector.Alarm
	// Detector is the pluggable detector contract of Figure 1.
	Detector = detector.Detector
	// DetectorFactory builds a detector with its defaults.
	DetectorFactory = detector.Factory
	// Result is a full extraction outcome; Result.Table() renders the
	// paper's Table 1 shape.
	Result = core.Result
	// ItemsetReport is one ranked itemset row.
	ItemsetReport = core.ItemsetReport
	// ExtractionOptions configures the extended-Apriori engine.
	ExtractionOptions = core.Options
	// AlarmEntry is a stored alarm with its operator workflow status.
	AlarmEntry = alarmdb.Entry
	// ExtractionProgress is one sampled progress observation from the
	// extraction engine (phase, tuning round, streamed-flow and mined-
	// itemset counts). See WithProgress.
	ExtractionProgress = core.Progress
	// JobStatus is a point-in-time snapshot of an extraction job.
	JobStatus = jobs.Status
	// JobProgress is the job-level progress sample carried by JobStatus.
	JobProgress = jobs.Progress
	// JobState is a job lifecycle state.
	JobState = jobs.State
)

// Job lifecycle states: queued → running → done | failed | canceled.
const (
	JobQueued   = jobs.StateQueued
	JobRunning  = jobs.StateRunning
	JobDone     = jobs.StateDone
	JobFailed   = jobs.StateFailed
	JobCanceled = jobs.StateCanceled
)

// Job kinds as reported in JobStatus.Kind.
const (
	JobKindExtract      = "extract"
	JobKindExtractBatch = "extract-batch"
)

// Job manager sentinels, re-exported so callers (like the HTTP layer)
// can branch without importing internal packages.
var (
	// ErrJobQueueFull rejects a Submit when the admission queue is at
	// depth — map it to 429.
	ErrJobQueueFull = jobs.ErrQueueFull
	// ErrJobNotFound marks an unknown or already-evicted job ID.
	ErrJobNotFound = jobs.ErrNotFound
	// ErrJobNotDone marks a JobResult fetch on an unfinished job.
	ErrJobNotDone = jobs.ErrNotDone
	// ErrJobDone marks a CancelJob on an already-terminal job.
	ErrJobDone = jobs.ErrDone
)

// DefaultExtractionOptions returns the engine defaults used throughout
// the paper reproduction.
func DefaultExtractionOptions() ExtractionOptions { return core.DefaultOptions() }

// RegisterDetector adds a named detector factory to the registry, making
// it usable through System.Detect and visible in DetectorNames. Built-in
// detectors are pre-registered; registering an already-taken name is an
// error.
func RegisterDetector(name string, factory DetectorFactory) error {
	return detector.Register(name, factory)
}

// DetectorNames lists the registered detectors, sorted by name.
func DetectorNames() []string { return detector.Names() }

// Miner is the pluggable frequent-itemset-mining contract of the
// extraction engine. The built-ins ("apriori", "fpgrowth", "fda") are
// pre-registered and produce identical canonical results — except fda
// when its statistical pre-filter is enabled, which then returns a
// subset (see docs/mining.md); external miners plug in via
// RegisterMiner and are selectable through WithMiner,
// ExtractionOptions.Miner and the -miner CLI flags.
type Miner = miner.Miner

// MinerFactory builds a miner instance for the registry.
type MinerFactory = miner.Factory

// RegisterMiner adds a named miner factory to the registry, making it
// usable through WithMiner and visible in MinerNames. Registering an
// already-taken name is an error.
func RegisterMiner(name string, factory MinerFactory) error {
	return miner.Register(name, factory)
}

// MinerNames lists the registered miners, sorted by name.
func MinerNames() []string { return miner.Names() }

// Option configures one System call. Options not meaningful for a call
// are ignored.
type Option func(*callOptions)

// callOptions is the resolved per-call configuration.
type callOptions struct {
	extraction    *ExtractionOptions
	miner         string
	ranking       string
	progress      core.ProgressFunc
	batchSink     func(ExtractResult)
	transientJob  bool
	jobWorkers    int
	jobQueueDepth int
	resultTTL     time.Duration
	segmentFormat uint16
	// Sharding / cluster-mode construction options (see WithShards,
	// WithPeers).
	shards        int
	peers         []string
	peerTimeout   time.Duration
	degradedReads bool
	// Live streaming construction (see live.go / WithLive).
	live *LiveConfig
	// extractFn substitutes the extraction engine; a test seam for
	// exercising the batch fan-out without real mining.
	extractFn func(ctx context.Context, a *Alarm) (*Result, error)
}

// WithExtractionOptions sets the extraction engine options for one
// Extract/ExtractAlarm/ExtractIncident/Submit call; without it the call
// runs the paper's configuration (DefaultExtractionOptions).
func WithExtractionOptions(opts ExtractionOptions) Option {
	return func(o *callOptions) { o.extraction = &opts }
}

// WithMiner selects the frequent-itemset miner (a name from MinerNames:
// "apriori", "fpgrowth", "fda", or an externally registered one) for one
// Extract/ExtractAlarm/Submit call. It composes with
// WithExtractionOptions — the miner name wins over the options' Miner
// field. An unknown name fails the call with an error listing the
// registered miners.
func WithMiner(name string) Option {
	return func(o *callOptions) { o.miner = name }
}

// Ranking modes for WithRanking and ExtractionOptions.Ranking: the
// paper's support-share score (the default), pure lift, and share
// weighted by lift (the FDA scoring shape; see docs/mining.md).
const (
	RankingSupport  = core.RankSupport
	RankingLift     = core.RankLift
	RankingWeighted = core.RankWeighted
)

// WithRanking selects how one Extract/ExtractAlarm/Submit call
// scores its final itemset list (RankingSupport, RankingLift or
// RankingWeighted). It composes with WithExtractionOptions — the ranking
// mode wins over the options' Ranking field. An unknown mode fails the
// call with an error listing the valid ones.
func WithRanking(mode string) Option {
	return func(o *callOptions) { o.ranking = mode }
}

// WithSegmentFormat selects the on-disk format for segments the store
// creates: nfstore.FormatV1 fixed rows or nfstore.FormatV2 compressed
// column blocks (the default for new stores). Construction option — at
// Create it is persisted in the store meta, at Open it overrides the
// persisted choice for this process. Existing segments keep their format
// either way; both formats read transparently.
func WithSegmentFormat(format uint16) Option {
	return func(o *callOptions) { o.segmentFormat = format }
}

// WithProgress attaches a progress observer to one
// Extract/ExtractAlarm/Submit call. The engine invokes fn with sampled
// observations (phase transitions, self-tuning rounds, streamed-flow
// counts) from the extraction goroutine — return quickly. Calls are
// never concurrent: batch jobs extract on several workers at once but
// serialize their observer invocations (the samples interleave across
// alarms). For jobs the same samples also feed the job's
// JobStatus.Progress, so fn is only needed for additional in-process
// observers.
func WithProgress(fn func(ExtractionProgress)) Option {
	return func(o *callOptions) { o.progress = fn }
}

// WithBatchResults attaches a per-alarm result sink to a batch Submit:
// fn is invoked from the job's worker goroutine as each alarm finishes,
// in completion order — the streaming seam the NDJSON batch endpoint is
// built on. The full result slice is still retained for JobResult.
func WithBatchResults(fn func(ExtractResult)) Option {
	return func(o *callOptions) { o.batchSink = fn }
}

// WithTransientJob marks one Submit as consume-on-wait: the job is
// dropped from the registry as soon as its outcome is read through
// Wait/JobResult instead of sitting in result retention for the full
// TTL. Use it when the submitter is the only consumer — the synchronous
// wrapper endpoints, for example — so finished results are not pinned
// with nobody left to fetch them. An abandoned transient job still
// expires through the normal TTL/LRU policy.
func WithTransientJob() Option {
	return func(o *callOptions) { o.transientJob = true }
}

// WithJobWorkers bounds how many jobs the system's job manager runs
// concurrently (default GOMAXPROCS). The same count bounds how many
// extractions one batch job runs at once. Construction option.
func WithJobWorkers(n int) Option {
	return func(o *callOptions) { o.jobWorkers = n }
}

// WithJobQueueDepth bounds how many submitted jobs may wait beyond the
// running ones before Submit rejects with ErrJobQueueFull (default 64).
// Construction option.
func WithJobQueueDepth(n int) Option {
	return func(o *callOptions) { o.jobQueueDepth = n }
}

// WithResultTTL bounds how long a finished job stays fetchable through
// JobResult (default 15 minutes). Construction option.
func WithResultTTL(d time.Duration) Option {
	return func(o *callOptions) { o.resultTTL = d }
}

// WithShards makes Create build a horizontally sharded store of n child
// stores under Config.StoreDir instead of a single directory (n <= 1
// keeps the single store). Whole bins go round-robin to the shards
// (shardstore.PartitionTime), so queries keep a single store's byte
// order; Open also accepts a hash-partitioned store built with
// `flowgen -shard-partition hash`. The sharded store answers the same
// query surface by scatter-gather and Open re-detects it from its
// manifest. Construction option.
func WithShards(n int) Option {
	return func(o *callOptions) { o.shards = n }
}

// WithPeers makes Open assemble a read-only cluster-mode system whose
// shards are remote rcad nodes (their /api/v1/shard endpoints), one
// shard per peer URL, instead of opening Config.StoreDir. Queries,
// aggregations and extraction fan out over HTTP with per-peer timeouts
// and bounded retries; a dead peer fails loudly with its URL in the
// error unless WithDegradedReads opted into partial results.
// Construction option.
func WithPeers(urls []string) Option {
	return func(o *callOptions) { o.peers = urls }
}

// WithPeerTimeout bounds each unary call to a cluster peer (default
// 10 s). Streaming queries are bounded by their caller's context
// instead. Construction option, meaningful with WithPeers.
func WithPeerTimeout(d time.Duration) Option {
	return func(o *callOptions) { o.peerTimeout = d }
}

// WithDegradedReads opts a sharded or cluster-mode system into degraded
// reads: when some (not all) shards fail mid-read, the surviving
// shards' partial result is returned instead of an error. Off by
// default — the default contract names the dead shard and fails.
// Construction option.
func WithDegradedReads(on bool) Option {
	return func(o *callOptions) { o.degradedReads = on }
}

// resolveOptions folds the options into the call configuration.
func resolveOptions(opts []Option) callOptions {
	var o callOptions
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// Config configures Open/Create.
type Config struct {
	// StoreDir is the flow store directory.
	StoreDir string
	// BinSeconds is the measurement bin width for Create (default 300 s,
	// the 5-minute NetFlow bins of the paper's deployments).
	BinSeconds uint32
	// AlarmDBPath persists alarms as JSON; empty keeps alarms in memory.
	AlarmDBPath string
}

// System is the assembled root-cause analysis system of Figure 1.
type System struct {
	store  nfstore.Engine
	alarms *alarmdb.DB
	ex     *core.Extractor // the paper's configuration
	jobs   *jobs.Manager   // the async extraction-job manager
	live   *liveState      // the streaming pipeline + watcher (nil: batch only)
}

// Create initializes a new system with a fresh flow store in
// cfg.StoreDir — a single directory, or (with WithShards) a
// horizontally sharded store. Construction options (WithSegmentFormat,
// WithShards) configure the assembled system; per-call options are
// ignored here.
func Create(cfg Config, opts ...Option) (*System, error) {
	o := resolveOptions(opts)
	format := o.segmentFormat
	if format == 0 {
		format = nfstore.DefaultSegmentFormat
	}
	var (
		store nfstore.Engine
		err   error
	)
	if o.shards > 1 {
		store, err = shardstore.Create(cfg.StoreDir, cfg.BinSeconds, o.shards, shardstore.PartitionTime, format)
	} else {
		store, err = nfstore.CreateFormat(cfg.StoreDir, cfg.BinSeconds, format)
	}
	if err != nil {
		return nil, err
	}
	return assemble(store, cfg, &o)
}

// Open opens a system over an existing flow store: cfg.StoreDir (a
// single directory or a sharded store, auto-detected from its shard
// manifest), or — with WithPeers — a read-only cluster of remote rcad
// shards, in which case cfg.StoreDir is ignored. Construction options
// (WithPeers, WithDegradedReads) configure the assembled system.
func Open(cfg Config, opts ...Option) (*System, error) {
	o := resolveOptions(opts)
	var (
		store nfstore.Engine
		err   error
	)
	switch {
	case len(o.peers) > 0:
		store, err = shardstore.OpenRemote(context.Background(), o.peers,
			shardstore.RemoteOptions{Timeout: o.peerTimeout})
	case shardstore.IsShardedDir(cfg.StoreDir):
		store, err = shardstore.Open(cfg.StoreDir)
	default:
		store, err = nfstore.Open(cfg.StoreDir)
	}
	if err != nil {
		return nil, err
	}
	return assemble(store, cfg, &o)
}

// assemble builds the system over an opened store from the already
// resolved construction options.
func assemble(store nfstore.Engine, cfg Config, o *callOptions) (*System, error) {
	// Store-type-specific tuning goes through optional interfaces: a
	// sharded store fans these out, a remote cluster rejects writes.
	if o.segmentFormat != 0 {
		if sf, ok := store.(interface{ SetSegmentFormat(uint16) error }); ok {
			if err := sf.SetSegmentFormat(o.segmentFormat); err != nil {
				store.Close()
				return nil, err
			}
		}
	}
	if o.degradedReads {
		if dg, ok := store.(interface{ SetDegraded(bool) }); ok {
			dg.SetDegraded(true)
		}
	}
	var db *alarmdb.DB
	if cfg.AlarmDBPath != "" {
		var err error
		db, err = alarmdb.Open(cfg.AlarmDBPath)
		if err != nil {
			store.Close()
			return nil, err
		}
	} else {
		db = alarmdb.New()
	}
	mgr := jobs.New(jobs.Config{
		Workers:    o.jobWorkers,
		QueueDepth: o.jobQueueDepth,
		ResultTTL:  o.resultTTL,
	})
	sys := &System{store: store, alarms: db, ex: core.MustNew(store, core.Options{}), jobs: mgr}
	if o.live != nil {
		if err := sys.startLive(*o.live); err != nil {
			mgr.Close()
			store.Close()
			return nil, err
		}
	}
	return sys, nil
}

// Store exposes the underlying flow store engine for ingest and ad-hoc
// queries — a single *nfstore.Store, a sharded store, or a remote
// cluster, all behind the same query surface.
func (s *System) Store() nfstore.Engine { return s.store }

// ShardStat is one shard's observability snapshot (scan counters,
// segment census, and — for an unreachable peer — the error).
type ShardStat = shardstore.ShardStat

// ShardStats returns the per-shard observability breakdown of a sharded
// or cluster-mode system, nil for a single-store system.
func (s *System) ShardStats() []ShardStat {
	if st, ok := s.store.(*shardstore.ShardedStore); ok {
		return st.ShardStats()
	}
	return nil
}

// QueryStats is a snapshot of the flow store's scan counters: segments
// considered, pruned via zone-map sidecars, scanned, answered entirely
// from sidecars, records decoded, and sidecars built.
type QueryStats = nfstore.Stats

// QueryStats returns the store's cumulative scan counters. The pruning
// and pushdown fast paths are observable here: a selective workload on a
// well-indexed store shows SegmentsPruned close to SegmentsConsidered.
func (s *System) QueryStats() QueryStats { return s.store.Stats() }

// AddFlows ingests a batch of flow records.
func (s *System) AddFlows(records []Record) error {
	if err := s.store.AddAll(records); err != nil {
		return err
	}
	return s.store.Flush()
}

// Close cancels queued and running jobs, waits for the job workers to
// wind down, then flushes and closes the store and persists the alarm
// database. A live system is drained first: buffered records are
// consumed, open bins seal, and in-flight auto-extractions conclude.
func (s *System) Close() error {
	if s.live != nil {
		_ = s.DrainLive(context.Background())
	}
	s.jobs.Close()
	err := s.alarms.Save()
	if cerr := s.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// ErrDetectorSetup marks failures building the requested detector — an
// unknown name. Callers (like the HTTP layer) can branch on it to
// distinguish caller mistakes from runtime detection failures.
var ErrDetectorSetup = errors.New("detector setup")

// Detect builds the named detector from the registry ("" selects
// "netreflex") with its defaults, runs it over the span, stores the
// alarms in the alarm database and returns their IDs.
func (s *System) Detect(ctx context.Context, detectorName string, span Interval) ([]string, error) {
	if detectorName == "" {
		detectorName = "netreflex"
	}
	det, err := detector.New(detectorName)
	if err != nil {
		return nil, fmt.Errorf("rootcause: %w: %w", ErrDetectorSetup, err)
	}
	alarms, err := det.Detect(ctx, s.store, span)
	if err != nil {
		return nil, err
	}
	return s.alarms.InsertAll(alarms), nil
}

// FileAlarm stores an externally produced alarm (the paper's system
// integrates "with any anomaly detection system that provides these
// data") and returns its ID.
func (s *System) FileAlarm(a Alarm) string { return s.alarms.Insert(a) }

// Alarms returns the stored alarms overlapping iv (all statuses).
func (s *System) Alarms(iv Interval) []AlarmEntry {
	return s.alarms.Query(iv, "")
}

// Alarm returns one stored alarm by ID.
func (s *System) Alarm(id string) (AlarmEntry, error) { return s.alarms.Get(id) }

// extractFunc runs the extraction engine on one alarm.
type extractFunc func(ctx context.Context, a *Alarm) (*Result, error)

// extractFn returns the extraction function for one call: the test
// seam when set, the system's engine, or a fresh engine when
// WithExtractionOptions, WithMiner, WithRanking or WithProgress set the
// configuration (an unknown miner or ranking fails here).
func (s *System) extractFn(o *callOptions) (extractFunc, error) {
	switch {
	case o.extractFn != nil:
		return o.extractFn, nil
	case o.extraction == nil && o.miner == "" && o.ranking == "" && o.progress == nil:
		return s.ex.Extract, nil
	}
	var opts core.Options
	if o.extraction != nil {
		opts = *o.extraction
	}
	if o.miner != "" {
		opts.Miner = o.miner
	}
	if o.ranking != "" {
		opts.Ranking = o.ranking
	}
	if o.progress != nil {
		opts.Progress = o.progress
	}
	ex, err := core.New(s.store, opts)
	if err != nil {
		return nil, err
	}
	return ex.Extract, nil
}

// target is one single-result extraction: where its alarm comes from
// and how a finished result is recorded. A stored alarm (alarmTarget)
// and a correlated incident (incidentTarget, incidents.go) are the two
// targets; Extract, ExtractIncident, the batch job's workers and the
// single-target job task all go through run.
type target struct {
	alarm func() (*Alarm, error)
	done  func(*Result) error
}

// run resolves the target's alarm, extracts it and records the outcome.
func (t target) run(ctx context.Context, fn extractFunc) (*Result, error) {
	a, err := t.alarm()
	if err != nil {
		return nil, err
	}
	res, err := fn(ctx, a)
	if err != nil {
		return nil, err
	}
	if err := t.done(res); err != nil {
		return nil, err
	}
	return res, nil
}

// extract runs one target synchronously under the caller's options.
func (s *System) extract(ctx context.Context, t target, opts []Option) (*Result, error) {
	o := resolveOptions(opts)
	fn, err := s.extractFn(&o)
	if err != nil {
		return nil, err
	}
	return t.run(ctx, fn)
}

// alarmTarget extracts a stored alarm and marks it analyzed.
func (s *System) alarmTarget(alarmID string) target {
	return target{
		alarm: func() (*Alarm, error) {
			entry, err := s.alarms.Get(alarmID)
			return &entry.Alarm, err
		},
		done: func(res *Result) error {
			note := fmt.Sprintf("%d itemsets", len(res.Itemsets))
			return s.alarms.SetStatus(alarmID, alarmdb.StatusAnalyzed, note)
		},
	}
}

// Extract runs anomaly extraction for a stored alarm and marks it
// analyzed. The result's Table() renders the operator view.
func (s *System) Extract(ctx context.Context, alarmID string, opts ...Option) (*Result, error) {
	return s.extract(ctx, s.alarmTarget(alarmID), opts)
}

// ExtractAlarm runs extraction for an ad-hoc alarm without storing it.
func (s *System) ExtractAlarm(ctx context.Context, a *Alarm, opts ...Option) (*Result, error) {
	o := resolveOptions(opts)
	fn, err := s.extractFn(&o)
	if err != nil {
		return nil, err
	}
	return fn(ctx, a)
}

// ExtractResult is one alarm's outcome in a batch job.
type ExtractResult struct {
	// AlarmID names the alarm this result belongs to.
	AlarmID string
	// Result is the extraction outcome; nil when Err is set.
	Result *Result
	// Err is the per-alarm failure (unknown ID, extraction error, or
	// the job's cancellation).
	Err error
}

// JobRequest describes one extraction-job submission: exactly one of
// AlarmID (a single extraction, JobKindExtract), AlarmIDs (a batch,
// JobKindExtractBatch) or IncidentID (a per-incident extraction,
// JobKindExtractIncident) must be set.
type JobRequest struct {
	// AlarmID submits a single stored-alarm extraction.
	AlarmID string
	// AlarmIDs submits a batch extraction; per-alarm outcomes are
	// retained in submission order (and optionally streamed through
	// WithBatchResults).
	AlarmIDs []string
	// IncidentID submits the one extraction of a correlated incident
	// (its members merged into a single mining run, like
	// ExtractIncident).
	IncidentID string
}

// JobResult is the outcome of a finished (done) job.
type JobResult struct {
	// Status is the job's final status snapshot.
	Status JobStatus
	// Result is the extraction outcome of a JobKindExtract job.
	Result *Result
	// Batch holds the per-alarm outcomes of a JobKindExtractBatch job,
	// in submission order.
	Batch []ExtractResult
}

// Submit enqueues an extraction job on the system's job manager and
// returns its ID immediately. The same per-call options as Extract
// apply (WithMiner, WithExtractionOptions, WithProgress; batches also
// take WithBatchResults) and are validated up front — a bad miner name fails the submission, not the job. A full
// queue fails with ErrJobQueueFull instead of blocking: callers under
// admission control back off and retry.
//
// The job runs under the manager's lifecycle context, not a caller
// context — the submitter may disconnect and fetch the result later
// via Wait or JobResult. CancelJob aborts it.
func (s *System) Submit(req JobRequest, opts ...Option) (string, error) {
	o := resolveOptions(opts)
	targets := 0
	for _, set := range []bool{req.AlarmID != "", len(req.AlarmIDs) > 0, req.IncidentID != ""} {
		if set {
			targets++
		}
	}
	if targets != 1 {
		return "", errNoJobTarget
	}
	// Fail fast on configuration mistakes (unknown miner, invalid
	// extraction options) while the caller is still on the line.
	if _, err := s.extractFn(&o); err != nil {
		return "", err
	}
	submit := s.jobs.Submit
	if o.transientJob {
		submit = s.jobs.SubmitTransient
	}
	switch {
	case req.AlarmID != "":
		return submit(JobKindExtract, s.targetTask(s.alarmTarget(req.AlarmID), o))
	case req.IncidentID != "":
		return submit(JobKindExtractIncident, s.targetTask(s.incidentTarget(req.IncidentID), o))
	}
	return submit(JobKindExtractBatch, s.batchTask(req.AlarmIDs, o))
}

// targetTask builds the job task for one single-target extraction. It
// holds the one ExtractionProgress → JobProgress bridge: the engine's
// sampled progress feeds the job status (and the caller's WithProgress
// observer, when set).
func (s *System) targetTask(t target, o callOptions) jobs.Task {
	return func(ctx context.Context, report func(JobProgress)) (any, error) {
		user := o.progress
		o.progress = func(p ExtractionProgress) {
			report(JobProgress{
				Phase:       p.Phase,
				TuningRound: p.TuningRound,
				Candidates:  p.CandidateFlows,
				Itemsets:    p.Itemsets,
			})
			if user != nil {
				user(p)
			}
		}
		fn, err := s.extractFn(&o)
		if err != nil {
			return nil, err
		}
		return t.run(ctx, fn)
	}
}

// batchTask builds the job task for a batch extraction: it fans the
// alarms out over as many goroutines as the manager has job workers,
// reports completed/total progress, streams each outcome to the
// WithBatchResults sink in completion order, and retains the outcomes
// in submission order.
func (s *System) batchTask(alarmIDs []string, o callOptions) jobs.Task {
	ids := append([]string(nil), alarmIDs...)
	width := min(s.jobs.Workers(), len(ids))
	return func(ctx context.Context, report func(JobProgress)) (any, error) {
		total := len(ids)
		report(JobProgress{Phase: "batch", Total: total})
		if o.progress != nil {
			// The workers share one extractor, so the engine would invoke
			// the observer from every worker at once — serialize to honor
			// WithProgress's single-call-at-a-time contract.
			var pmu sync.Mutex
			user := o.progress
			o.progress = func(p ExtractionProgress) {
				pmu.Lock()
				defer pmu.Unlock()
				user(p)
			}
		}
		fn, err := s.extractFn(&o)
		if err != nil {
			return nil, err
		}
		// Workers claim the next index until the batch or ctx runs out and
		// hand each finished index to this goroutine, which alone calls
		// the sink and reports progress.
		out := make([]ExtractResult, total)
		finished := make(chan int)
		var next atomic.Int64
		var wg sync.WaitGroup
		for range width {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < total && ctx.Err() == nil; i = int(next.Add(1) - 1) {
					out[i].AlarmID = ids[i]
					out[i].Result, out[i].Err = s.alarmTarget(ids[i]).run(ctx, fn)
					finished <- i
				}
			}()
		}
		go func() {
			wg.Wait()
			close(finished)
		}()
		done := 0
		for i := range finished {
			if o.batchSink != nil {
				o.batchSink(out[i])
			}
			done++
			report(JobProgress{Phase: "batch", Completed: done, Total: total})
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}
}

// Job returns the status snapshot of one job.
func (s *System) Job(id string) (JobStatus, error) { return s.jobs.Get(id) }

// Jobs lists every known job — queued, running and retained terminal
// ones — newest submission first.
func (s *System) Jobs() []JobStatus { return s.jobs.List() }

// CancelJob requests cancellation: a queued job is canceled in place, a
// running one has its context canceled (the extraction engine aborts at
// its next cancellation point). Canceling a terminal job is ErrJobDone.
func (s *System) CancelJob(id string) error { return s.jobs.Cancel(id) }

// Wait blocks until the job finishes (in any terminal state) or ctx is
// canceled. A done job returns its JobResult; a failed or canceled job
// returns the underlying error (errors.Is-compatible with domain
// sentinels like the alarm database's not-found error). The outcome is
// read from the job record the waiter holds, so it cannot be lost to a
// concurrent TTL/LRU eviction of the job's ID.
func (s *System) Wait(ctx context.Context, id string) (*JobResult, error) {
	return toJobResult(s.jobs.WaitResult(ctx, id))
}

// toJobResult shapes a job's retained outcome — task value, final
// status, error — into the public JobResult.
func toJobResult(val any, st JobStatus, err error) (*JobResult, error) {
	if err != nil {
		return nil, err
	}
	jr := &JobResult{Status: st}
	switch v := val.(type) {
	case *Result:
		jr.Result = v
	case []ExtractResult:
		jr.Batch = v
	}
	return jr, nil
}

// JobResult fetches a finished job's outcome. Unfinished jobs return
// ErrJobNotDone, unknown (or TTL/LRU-evicted) ones ErrJobNotFound, and
// failed or canceled jobs their stored error alongside the final status
// in a nil JobResult.
func (s *System) JobResult(id string) (*JobResult, error) {
	return toJobResult(s.jobs.Result(id))
}

// WatchJob subscribes to a job's status stream: the current snapshot
// immediately, then one per state or progress change, closed after the
// terminal one. Always call the returned cancel function. This is the
// seam the HTTP layer's SSE endpoint streams from.
func (s *System) WatchJob(id string) (<-chan JobStatus, func(), error) {
	return s.jobs.Subscribe(id)
}

// SetVerdict records the operator's validation verdict for an alarm.
func (s *System) SetVerdict(alarmID string, validated bool, note string) error {
	status := alarmdb.StatusValidated
	if !validated {
		status = alarmdb.StatusRejected
	}
	return s.alarms.SetStatus(alarmID, status, note)
}

// ErrBadFilter marks a drill-down filter expression that does not parse
// — the caller's mistake, as opposed to a failed store scan.
var ErrBadFilter = errors.New("rootcause: bad filter")

// Flows returns the raw flow records of an interval matching an
// nfdump-style filter expression ("src ip 10.0.0.1 and dst port 80");
// empty filter returns everything. This is the GUI's drill-down: the
// paper's operator can "investigate the flows of any returned itemset".
func (s *System) Flows(ctx context.Context, iv Interval, filterExpr string) ([]Record, error) {
	var f *nffilter.Filter
	if filterExpr != "" {
		var err error
		f, err = nffilter.Parse(filterExpr)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadFilter, err)
		}
	}
	return s.store.Records(ctx, iv, f)
}

// ItemsetFlows returns the raw flows behind one extracted itemset row.
func (s *System) ItemsetFlows(ctx context.Context, iv Interval, rep *ItemsetReport) ([]Record, error) {
	return s.store.Records(ctx, iv, rep.Filter())
}
