// Package jobs is the asynchronous job manager behind the system's
// job-oriented extraction API. It decouples accepting work from doing
// it — the operating mode service-scale itemset-mining RCA systems
// converge on (Fast Dimensional Analysis, arXiv:1911.01225): analyses
// run as jobs on a bounded worker pool over a shared store, callers
// submit and poll (or subscribe) instead of holding a connection for
// the whole self-tuning mining run.
//
// The manager owns four concerns:
//
//   - Admission control. The submission queue has a fixed depth;
//     Submit never blocks — a full queue rejects with ErrQueueFull so
//     the HTTP layer can answer 429 instead of stacking goroutines.
//
//   - Lifecycle. Every job moves queued → running → done | failed |
//     canceled. Cancel works in any non-terminal state: a queued job is
//     canceled in place (it never runs), a running job has its context
//     canceled and winds down at the next cancellation point inside the
//     task (the extraction engine checks its context in every scan and
//     mining stride).
//
//   - Progress. Tasks receive a report callback; the latest sample is
//     visible in Status and fanned out to subscribers (the SSE seam).
//
//   - Retention. Terminal jobs are kept for Result fetches until their
//     TTL expires or the LRU cap evicts the least recently touched one,
//     so a disconnected client can come back for its result without the
//     manager growing without bound.
//
// # Configuration
//
// Config sets the worker count, the queue depth and the result TTL
// (rcad -job-workers, -job-queue, -result-ttl). The LRU cap is fixed:
//
//   - maxResults = 256 terminal jobs. Each retained job holds its task's
//     result (an extraction's ranked itemsets), so the cap bounds the
//     manager's memory whatever the TTL.
package jobs
