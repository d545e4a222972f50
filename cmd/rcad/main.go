// Command rcad serves the HTTP JSON backend of the paper's operator GUI:
// listing alarms, running detection and extraction, drilling down to raw
// flows with nfdump-style filters, and recording verdicts. The paper's
// front-end is a GUI over exactly these operations; any HTTP client can
// drive this backend.
//
//	rcad -store /tmp/flows -alarmdb /tmp/alarms.json -listen :8642
//
// docs/api.md is the HTTP reference; it documents the route table in
// routes.go, which is also what `rcad -h` prints. Every handler runs
// under its request's context: a disconnecting client aborts the
// store scan it was waiting for, and the synchronous extraction
// endpoints cancel their job on disconnect. The server drains in-flight
// requests on SIGINT or SIGTERM via http.Server.Shutdown and always
// closes the system so jobs wind down, the flow store flushes and the
// alarm database persists.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	rootcause "repro"
	"repro/internal/cliflag"
	"repro/internal/flow"
	"repro/internal/nffilter"
)

// splitList parses a comma-separated flag (-peers, -live-detectors) into
// its non-empty elements.
func splitList(s string) []string {
	var items []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			items = append(items, p)
		}
	}
	return items
}

func main() {
	var (
		storeDir   = flag.String("store", "", "flow store directory (required)")
		dbPath     = flag.String("alarmdb", "", "alarm database JSON path")
		listen     = flag.String("listen", ":8642", "listen address")
		drain      = flag.Duration("drain", 30*time.Second, "shutdown drain timeout")
		jobWorkers = flag.Int("job-workers", 0,
			"concurrent extraction jobs (0 = GOMAXPROCS)")
		jobQueue = flag.Int("job-queue", 0,
			"submitted jobs that may wait beyond the running ones before 429 (0 = 64)")
		resultTTL = flag.Duration("result-ttl", 0,
			"how long finished job results stay fetchable (0 = 15m)")
		segFormat = flag.Int("segment-format", 0,
			"on-disk format for newly created segments: 1 = fixed rows, 2 = column blocks (0 = store default)")
		peers = flag.String("peers", "",
			"comma-separated peer rcad URLs; serve as cluster coordinator over their /api/v1/shard endpoints instead of a local store")
		peerTimeout = flag.Duration("peer-timeout", 0,
			"per-peer timeout for unary cluster calls (0 = 10s)")
		degraded = flag.Bool("degraded", false,
			"return partial results when some (not all) shards fail instead of erroring")
		live = flag.Bool("live", false,
			"start the live streaming pipeline: accept continuous ingest on POST /api/v1/stream/ingest, run online detectors, auto-correlate and auto-extract incidents (local store only)")
		liveDetectors = flag.String("live-detectors", "",
			"comma-separated online detectors for -live (empty = cusum,sketch)")
		sealLag = flag.Uint("seal-lag", 0,
			"with -live, seconds past a bin's end before it seals (grace for out-of-order records)")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprint(out, `usage: rcad -store DIR [flags]

Serve the HTTP JSON backend of the paper's operator GUI: listing
alarms, running detection and extraction, drilling down to raw flows
with nfdump-style filters, and recording verdicts. Extractions run as
asynchronous jobs on a bounded worker pool; the synchronous endpoints
submit to the same pool and wait.

Endpoints, all under /api/v1 (docs/api.md has bodies and status codes):
`)
		for _, rt := range routeTable {
			fmt.Fprintf(out, "  %-6s %-24s %s\n", rt.method, rt.path, rt.doc)
		}
		fmt.Fprint(out, `
Cluster mode:
  A node started with -peers URL1,URL2,... opens no local store; it
  coordinates queries, detection and extraction by scatter-gather over
  the peers' shard endpoints (per-peer timeouts, bounded retries; a dead
  peer fails with its URL named, or -degraded returns partial results).

Example:
  rcad -store /tmp/flows -alarmdb /tmp/flows/alarms.json -listen :8642
  rcad -peers http://10.0.0.1:8642,http://10.0.0.2:8642 -alarmdb /tmp/alarms.json

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	peerList := splitList(*peers)
	if *storeDir == "" && len(peerList) == 0 {
		fmt.Fprintln(os.Stderr, "rcad: -store is required (or -peers for cluster mode)")
		flag.Usage()
		os.Exit(2)
	}
	opts := []rootcause.Option{
		rootcause.WithJobWorkers(*jobWorkers),
		rootcause.WithJobQueueDepth(*jobQueue),
		rootcause.WithResultTTL(*resultTTL),
		rootcause.WithSegmentFormat(cliflag.Narrow[uint16]("rcad", "segment-format", *segFormat)),
		rootcause.WithDegradedReads(*degraded),
	}
	if len(peerList) > 0 {
		opts = append(opts, rootcause.WithPeers(peerList), rootcause.WithPeerTimeout(*peerTimeout))
	}
	if *live {
		if len(peerList) > 0 {
			fmt.Fprintln(os.Stderr, "rcad: -live requires a local store, not cluster mode (-peers)")
			os.Exit(2)
		}
		opts = append(opts, rootcause.WithLive(rootcause.LiveConfig{
			Detectors:      splitList(*liveDetectors),
			SealLagSeconds: cliflag.Narrow[uint32]("rcad", "seal-lag", *sealLag),
		}))
	}
	open := rootcause.Open
	if *live && !storeExists(*storeDir) {
		// A live server may start cold: records arrive over the ingest
		// endpoint, so an empty directory is a fresh store, not an error.
		open = rootcause.Create
	}
	sys, err := open(rootcause.Config{StoreDir: *storeDir, AlarmDBPath: *dbPath}, opts...)
	if err != nil {
		log.Fatal("rcad: ", err)
	}
	if err := run(sys, *listen, *drain); err != nil {
		sys.Close()
		log.Fatal("rcad: ", err)
	}
	if err := sys.Close(); err != nil {
		log.Fatal("rcad: close: ", err)
	}
}

// run serves until SIGINT/SIGTERM, then drains in-flight requests via
// Shutdown. Requests still running when the drain timeout expires have
// their contexts cancelled so store scans and extractions abort cleanly
// instead of being cut mid-write.
func run(sys *rootcause.System, listen string, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// baseCtx outlives the signal: in-flight requests keep working during
	// the drain window and are cancelled only when it runs out.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	srv := &http.Server{
		Addr:        listen,
		Handler:     (&server{sys: sys}).routes(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}

	ln, err := net.Listen("tcp", listen)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() {
		// The resolved address matters when -listen used port 0 (tests
		// and scripts parse this line to find the server).
		log.Printf("rcad: serving on %s", ln.Addr())
		errCh <- srv.Serve(ln)
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	log.Printf("rcad: shutting down (drain %s)", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if sys.Live() {
		// Drain the live pipeline first: seal the open bins, let the
		// watcher and in-flight auto-extractions finish, then close the
		// incident feed — which releases the SSE tails that would
		// otherwise hold Shutdown open for the whole window.
		if derr := sys.DrainLive(shutdownCtx); derr != nil {
			log.Printf("rcad: live drain: %v", derr)
		}
	}
	err = srv.Shutdown(shutdownCtx)
	if err != nil {
		// Drain window expired: cancel the stragglers' contexts and force
		// the remaining connections closed.
		baseCancel()
		srv.Close()
	}
	if serveErr := <-errCh; serveErr != nil && !errors.Is(serveErr, http.ErrServerClosed) {
		return serveErr
	}
	if err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// parseSpan reads from/to query parameters (0 = open end).
func parseSpan(r *http.Request) (flow.Interval, error) {
	span := flow.Interval{Start: 0, End: ^uint32(0)}
	for key, dst := range map[string]*uint32{"from": &span.Start, "to": &span.End} {
		if v := r.URL.Query().Get(key); v != "" {
			n, err := strconv.ParseUint(v, 10, 32)
			if err != nil {
				return span, badRequest{fmt.Errorf("bad %s: %v", key, err)}
			}
			*dst = uint32(n)
		}
	}
	return span, nil
}

// bodySpan turns a body's from/to fields into a span (to 0 = open end).
func bodySpan(from, to uint32) flow.Interval {
	if to == 0 {
		to = ^uint32(0)
	}
	return flow.Interval{Start: from, End: to}
}

// formatCounts keys a segment census by "v1"/"v2".
func formatCounts(counts map[uint16]int) map[string]int {
	out := make(map[string]int, len(counts))
	for v, n := range counts {
		out[fmt.Sprintf("v%d", v)] = n
	}
	return out
}

// Handlers answer with a value (written as a 200 JSON response by
// routes) or an error (answered through writeErr); the ones that stream
// or answer another status write the response themselves and return
// nil, nil.

func (s *server) handleHealth(http.ResponseWriter, *http.Request) (any, error) {
	// The span probe doubles as the liveness check: in cluster mode an
	// unreachable peer fails it, which degrades the status but never
	// stops health from answering — the per-shard breakdown below names
	// the dead shard.
	status := "ok"
	span, ok, err := s.sys.Store().Span()
	if err != nil {
		status = "degraded"
		ok = false
	}
	jobsByState := map[rootcause.JobState]int{}
	for _, j := range s.sys.Jobs() {
		jobsByState[j.State]++
	}
	// Segment counts by on-disk format so operators can watch a migration
	// converge; a per-segment header sniff is cheap at the bin counts a
	// store holds. Errors degrade to an empty census — health must answer
	// even over a half-written store.
	formats, _ := s.sys.Store().SegmentFormats()
	health := map[string]any{
		"status":          status,
		"store_span":      span.String(),
		"has_data":        ok,
		"query_stats":     s.sys.QueryStats(),
		"segment_formats": formatCounts(formats),
		"write_format":    fmt.Sprintf("v%d", s.sys.Store().SegmentFormat()),
		"jobs":            jobsByState,
		"incidents":       s.sys.IncidentCounts(),
		"event_streams":   s.sseStreams.Load(),
	}
	// Live mode adds the streaming census: open bins, stream clock,
	// ingest rate, drops, watcher backlog and the automation counters.
	if st := s.sys.StreamStats(); st != nil {
		health["stream"] = st
	}
	// Sharded and cluster-mode systems add the per-shard breakdown: the
	// rollup above stays, each shard's counters and segment census (or
	// its error, for an unreachable peer) are listed alongside.
	if shards := s.sys.ShardStats(); shards != nil {
		perShard := make([]map[string]any, len(shards))
		for i, sh := range shards {
			perShard[i] = map[string]any{"shard": sh.Shard}
			if sh.Err != "" {
				perShard[i]["error"] = sh.Err
			} else {
				perShard[i]["query_stats"] = sh.Stats
				perShard[i]["segment_formats"] = formatCounts(sh.Formats)
			}
		}
		health["shards"] = perShard
	}
	return health, nil
}

func (s *server) handleDetectors(http.ResponseWriter, *http.Request) (any, error) {
	return map[string]any{"detectors": rootcause.DetectorNames()}, nil
}

func (s *server) handleMiners(http.ResponseWriter, *http.Request) (any, error) {
	return map[string]any{"miners": rootcause.MinerNames()}, nil
}

func (s *server) handleDetect(w http.ResponseWriter, r *http.Request) (any, error) {
	var body struct {
		Detector string `json:"detector"`
		From     uint32 `json:"from"`
		To       uint32 `json:"to"`
	}
	if err := decodeBody(w, r, &body, false); err != nil {
		return nil, err
	}
	ids, err := s.sys.Detect(r.Context(), body.Detector, bodySpan(body.From, body.To))
	return map[string]any{"alarm_ids": ids}, err
}

func (s *server) handleAlarms(_ http.ResponseWriter, r *http.Request) (any, error) {
	span, err := parseSpan(r)
	if err != nil {
		return nil, err
	}
	return s.sys.Alarms(span), nil
}

func (s *server) handleAlarm(_ http.ResponseWriter, r *http.Request) (any, error) {
	return s.sys.Alarm(r.PathValue("id"))
}

func (s *server) handleVerdict(w http.ResponseWriter, r *http.Request) (any, error) {
	var body struct {
		Validated bool   `json:"validated"`
		Note      string `json:"note"`
	}
	if err := decodeBody(w, r, &body, false); err != nil {
		return nil, err
	}
	err := s.sys.SetVerdict(r.PathValue("id"), body.Validated, body.Note)
	return map[string]string{"status": "ok"}, err
}

// handleFlows streams the scan: only the first limit rows are kept, the
// rest are counted, so memory does not grow with the match count.
func (s *server) handleFlows(_ http.ResponseWriter, r *http.Request) (any, error) {
	span, err := parseSpan(r)
	if err != nil {
		return nil, err
	}
	limit := 1000
	if v := r.URL.Query().Get("limit"); v != "" {
		if limit, err = strconv.Atoi(v); err != nil || limit <= 0 {
			return nil, badRequest{fmt.Errorf("bad limit %q", v)}
		}
	}
	var filter *nffilter.Filter
	if expr := r.URL.Query().Get("filter"); expr != "" {
		if filter, err = nffilter.Parse(expr); err != nil {
			return nil, fmt.Errorf("%w: %w", rootcause.ErrBadFilter, err)
		}
	}
	total, lines := 0, []string{}
	err = s.sys.Store().Query(r.Context(), span, filter, func(rec *flow.Record) error {
		if total < limit {
			lines = append(lines, rec.String())
		}
		total++
		return nil
	})
	return map[string]any{"total": total, "returned": len(lines), "flows": lines}, err
}

// extractResponse is the JSON shape of an extraction result.
type extractResponse struct {
	AlarmID          string        `json:"alarm_id"`
	CandidateFlows   uint64        `json:"candidate_flows"`
	CandidatePackets uint64        `json:"candidate_packets"`
	Prefiltered      bool          `json:"prefiltered"`
	Itemsets         []itemsetJSON `json:"itemsets"`
	Table            string        `json:"table"`
}

// itemsetJSON is one itemset row with its drill-down filter.
type itemsetJSON struct {
	Items         string  `json:"items"`
	FlowSupport   uint64  `json:"flow_support"`
	PacketSupport uint64  `json:"packet_support"`
	Score         float64 `json:"score"`
	Filter        string  `json:"filter"`
}

// toExtractResponse converts a result for the wire.
func toExtractResponse(res *rootcause.Result) extractResponse {
	resp := extractResponse{
		AlarmID:          res.Alarm.ID,
		CandidateFlows:   res.CandidateFlows,
		CandidatePackets: res.CandidatePackets,
		Prefiltered:      res.Prefiltered,
		Table:            res.Table().String(),
	}
	for i := range res.Itemsets {
		rep := &res.Itemsets[i]
		resp.Itemsets = append(resp.Itemsets, itemsetJSON{
			Items:         rep.Items.String(),
			FlowSupport:   rep.FlowSupport,
			PacketSupport: rep.PacketSupport,
			Score:         rep.Score,
			Filter:        rep.Filter().String(),
		})
	}
	return resp
}

// batchLine is one NDJSON line of /extract-batch and one entry of a
// batch job's result payload.
type batchLine struct {
	AlarmID string           `json:"alarm_id"`
	Error   string           `json:"error,omitempty"`
	Result  *extractResponse `json:"result,omitempty"`
}

// toBatchLine converts one per-alarm outcome for the wire.
func toBatchLine(res rootcause.ExtractResult) batchLine {
	line := batchLine{AlarmID: res.AlarmID}
	if res.Err != nil {
		line.Error = res.Err.Error()
	} else {
		resp := toExtractResponse(res.Result)
		line.Result = &resp
	}
	return line
}

// extractRequest is the one body every extraction endpoint decodes: a
// target (exactly one of alarm_id, alarm_ids, incident_id — or none
// where the path names it) plus the optional miner and ranking. A batch
// runs as wide as -job-workers; nothing in the body changes that.
type extractRequest struct {
	AlarmID    string   `json:"alarm_id"`
	AlarmIDs   []string `json:"alarm_ids"`
	IncidentID string   `json:"incident_id"`
	Miner      string   `json:"miner"`
	Ranking    string   `json:"ranking"`
}

// decodeExtract decodes an extractRequest into the façade's vocabulary.
// Zero fields mean "unset" on both sides, so they pass straight
// through, and names are not checked here: Submit rejects an unknown
// miner or ranking with the registry's names in the message.
func decodeExtract(w http.ResponseWriter, r *http.Request, optional bool) (rootcause.JobRequest, []rootcause.Option, error) {
	var q extractRequest
	err := decodeBody(w, r, &q, optional)
	return rootcause.JobRequest{AlarmID: q.AlarmID, AlarmIDs: q.AlarmIDs, IncidentID: q.IncidentID},
		[]rootcause.Option{
			rootcause.WithMiner(q.Miner),
			rootcause.WithRanking(q.Ranking),
		}, err
}

// submit queues an extraction. Submit validates while the caller is
// still on the line, so its rejections are the caller's mistake — except
// a full queue, which the error map answers 429 first.
func (s *server) submit(req rootcause.JobRequest, opts ...rootcause.Option) (string, error) {
	jobID, err := s.sys.Submit(req, opts...)
	if err != nil {
		return "", badRequest{err}
	}
	return jobID, nil
}

// submitAccepted queues an extraction and answers 202 with the job.
func (s *server) submitAccepted(w http.ResponseWriter, req rootcause.JobRequest, opts []rootcause.Option) (any, error) {
	jobID, err := s.submit(req, opts...)
	if err != nil {
		return nil, err
	}
	job, err := s.job(jobID)
	if err != nil {
		return nil, err
	}
	writeJSON(w, http.StatusAccepted, job)
	return nil, nil
}

// job is the {"job": status} envelope of one job.
func (s *server) job(jobID string) (any, error) {
	st, err := s.sys.Job(jobID)
	return map[string]any{"job": st}, err
}

// await waits for a job this request submitted; a client that
// disconnects cancels the job it was waiting for.
func (s *server) await(r *http.Request, jobID string) (*rootcause.JobResult, error) {
	res, err := s.sys.Wait(r.Context(), jobID)
	if err != nil && r.Context().Err() != nil {
		s.sys.CancelJob(jobID)
	}
	return res, err
}

// handleExtract is submit + wait on the job path of POST /jobs. The job
// is transient — this handler is its only consumer, so the result must
// not sit in retention after the response.
func (s *server) handleExtract(w http.ResponseWriter, r *http.Request) (any, error) {
	_, opts, err := decodeExtract(w, r, true)
	if err != nil {
		return nil, err
	}
	jobID, err := s.submit(rootcause.JobRequest{AlarmID: r.PathValue("id")},
		append(opts, rootcause.WithTransientJob())...)
	if err != nil {
		return nil, err
	}
	res, err := s.await(r, jobID)
	if err != nil {
		return nil, err
	}
	return toExtractResponse(res.Result), nil
}

// handleExtractBatch wraps a transient batch job: each alarm's line is
// streamed from the job's worker as it completes, while the handler
// waits for the job. A client that disconnects or stalls past the write
// deadline makes further extraction unobservable, so the job is
// canceled rather than finished for no one.
func (s *server) handleExtractBatch(w http.ResponseWriter, r *http.Request) (any, error) {
	req, opts, err := decodeExtract(w, r, false)
	if err != nil {
		return nil, err
	}
	sw := newStreamWriter(w, "application/x-ndjson")
	defer sw.close()
	var jobID string
	admitted := make(chan struct{}) // closed once jobID is set
	sink := func(res rootcause.ExtractResult) {
		line, err := json.Marshal(toBatchLine(res))
		if err != nil {
			log.Printf("rcad: encode batch line: %v", err)
		}
		if err != nil || !sw.write(append(line, '\n')) {
			<-admitted
			s.sys.CancelJob(jobID)
		}
	}
	jobID, err = s.submit(rootcause.JobRequest{AlarmIDs: req.AlarmIDs},
		append(opts, rootcause.WithBatchResults(sink), rootcause.WithTransientJob())...)
	if err != nil {
		return nil, err
	}
	close(admitted)
	s.await(r, jobID) // the outcome went out line by line
	return nil, nil
}

func (s *server) handleJobSubmit(w http.ResponseWriter, r *http.Request) (any, error) {
	req, opts, err := decodeExtract(w, r, false)
	if err != nil {
		return nil, err
	}
	return s.submitAccepted(w, req, opts)
}

func (s *server) handleJobList(http.ResponseWriter, *http.Request) (any, error) {
	return map[string]any{"jobs": s.sys.Jobs()}, nil
}

func (s *server) handleJobGet(_ http.ResponseWriter, r *http.Request) (any, error) {
	return s.job(r.PathValue("id"))
}

func (s *server) handleJobCancel(_ http.ResponseWriter, r *http.Request) (any, error) {
	id := r.PathValue("id")
	if err := s.sys.CancelJob(id); err != nil {
		return nil, err
	}
	return s.job(id)
}

// handleJobResult returns a finished job's outcome: {"job": status,
// "result": ...} for a done single extraction, {"job": status,
// "results": [...]} for a done batch, and just {"job": status} (the
// error is inside) for failed or canceled jobs. An unfinished job is a
// 409 carrying its status, so pollers can tell "not yet" from "gone"
// (404).
func (s *server) handleJobResult(w http.ResponseWriter, r *http.Request) (any, error) {
	id := r.PathValue("id")
	st, err := s.sys.Job(id)
	if err != nil {
		return nil, err
	}
	out := map[string]any{"job": st}
	if !st.State.Terminal() {
		writeErr(w, rootcause.ErrJobNotDone, out)
		return nil, nil
	}
	if st.State == rootcause.JobDone {
		jr, err := s.sys.JobResult(id)
		if err != nil {
			return nil, err // evicted since the status read
		}
		switch {
		case jr.Result != nil:
			out["result"] = toExtractResponse(jr.Result)
		case jr.Batch != nil:
			lines := make([]batchLine, len(jr.Batch))
			for i, res := range jr.Batch {
				lines[i] = toBatchLine(res)
			}
			out["results"] = lines
		}
	}
	return out, nil
}

// handleJobEvents streams a job's status as server-sent events: one
// "progress" event per state or progress change and a final "done"
// event with the terminal status, then the stream closes. A client
// disconnect detaches the subscription immediately.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) (any, error) {
	ch, cancel, err := s.sys.WatchJob(r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	defer cancel()
	serveSSE(s, w, r, ch, func(st rootcause.JobStatus) string {
		if st.State.Terminal() {
			return "done"
		}
		return "progress"
	})
	return nil, nil
}
