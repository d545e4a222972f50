// The one request path: route table → body decoder → façade call →
// error map or stream writer. docs/api.md documents every row.
package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rootcause "repro"
	"repro/internal/alarmdb"
	"repro/internal/shardstore"
	"repro/internal/stream"
)

// route is one HTTP resource. The table below is the whole surface: it
// is what routes registers and what `rcad -h` prints.
type route struct {
	method string // "" matches any method (the shard sub-tree)
	path   string // under /api/v1
	handle func(*server, http.ResponseWriter, *http.Request) (any, error)
	doc    string
}

var routeTable = []route{
	{"GET", "/health", (*server).handleHealth, "status, store span, scan/job/incident census; with -live the stream census, sharded the per-shard rows"},
	{"GET", "/detectors", (*server).handleDetectors, "registered detector names"},
	{"GET", "/miners", (*server).handleMiners, "registered miner names"},
	{"POST", "/detect", (*server).handleDetect, `run a detector, file its alarms: {"detector":"netreflex","from":U,"to":U}`},
	{"GET", "/alarms", (*server).handleAlarms, "stored alarms overlapping ?from=U&to=U"},
	{"GET", "/alarms/{id}", (*server).handleAlarm, "one stored alarm"},
	{"POST", "/alarms/{id}/extract", (*server).handleExtract, `extract now (submit + wait): optional {"miner":"fpgrowth","ranking":"lift"}`},
	{"POST", "/alarms/{id}/verdict", (*server).handleVerdict, `record the operator verdict: {"validated":true,"note":"..."}`},
	{"POST", "/extract-batch", (*server).handleExtractBatch, `extract many as wide as -job-workers, one NDJSON line per alarm as it completes: {"alarm_ids":["1","2"]}`},
	{"GET", "/flows", (*server).handleFlows, "drill-down to raw flows: ?from=U&to=U&filter=EXPR&limit=N"},
	{"POST", "/jobs", (*server).handleJobSubmit, `queue an extraction (202, or 429 + Retry-After): {"alarm_id":"1"} | {"alarm_ids":[...]} | {"incident_id":"i1"}`},
	{"GET", "/jobs", (*server).handleJobList, "queued, running and retained jobs"},
	{"GET", "/jobs/{id}", (*server).handleJobGet, "status + live progress"},
	{"DELETE", "/jobs/{id}", (*server).handleJobCancel, "cancel a queued or running job"},
	{"GET", "/jobs/{id}/result", (*server).handleJobResult, "outcome of a finished job (409 while unfinished)"},
	{"GET", "/jobs/{id}/events", (*server).handleJobEvents, "SSE stream of status/progress events"},
	{"POST", "/correlate", (*server).handleCorrelate, `dedup + correlate stored alarms into incidents (the live watcher's one policy): optional {"from":U,"to":U}`},
	{"GET", "/incidents", (*server).handleIncidents, "stored incidents overlapping ?from=U&to=U"},
	{"GET", "/incidents/{id}", (*server).handleIncident, "one incident + member alarms + lead-lag chain"},
	{"POST", "/incidents/{id}/extract", (*server).handleIncidentExtract, `queue the incident's ONE extraction job (202): optional {"miner":..,"ranking":..}`},
	{"POST", "/stream/ingest", (*server).handleStreamIngest, "with -live: NDJSON flow records, ingested continuously under backpressure"},
	{"GET", "/stream/incidents", (*server).handleStreamIncidents, "with -live: SSE tail of auto-correlated, auto-extracted incidents"},
	{"", "/shard/", (*server).handleShard, "this node's store as one cluster shard, for coordinators started with -peers"},
}

// pattern is the route's ServeMux pattern.
func (rt route) pattern() string {
	return strings.TrimSpace(rt.method + " /api/v1" + rt.path)
}

// server holds the handler state.
type server struct {
	sys *rootcause.System
	// shard serves the store under /api/v1/shard/ (framed binary /query,
	// JSON aggregations — see internal/shardstore).
	shard http.Handler
	// sseStreams counts open SSE connections (surfaced in health; tests
	// use it to observe disconnects).
	sseStreams atomic.Int64
}

// routes builds the HTTP mux from the route table.
func (s *server) routes() http.Handler {
	s.shard = http.StripPrefix("/api/v1/shard", shardstore.Handler(s.sys.Store()))
	mux := http.NewServeMux()
	for _, rt := range routeTable {
		h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			switch v, err := rt.handle(s, w, r); {
			case err != nil:
				writeErr(w, err)
			case v != nil:
				writeJSON(w, http.StatusOK, v)
			}
		})
		mux.Handle(rt.pattern(), h)
	}
	return mux
}

func (s *server) handleShard(w http.ResponseWriter, r *http.Request) (any, error) {
	s.shard.ServeHTTP(w, r)
	return nil, nil
}

// writeJSON writes a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		log.Printf("rcad: encode response: %v", err)
	}
}

// badRequest marks an error as the caller's mistake: an undecodable
// body, a bad query parameter, a submission the façade rejected.
type badRequest struct{ error }

func (e badRequest) Unwrap() error { return e.error }

// writeErr answers a failed request with the JSON error envelope; it
// holds the one error→status map. Sentinels are consulted before the
// badRequest mark, so a full queue stays 429 even though every Submit
// rejection is marked; anything unlisted — a failed store scan, an
// unreachable peer — is the server's fault. extra fields (the ingest
// count, the unfinished job) ride along in the envelope.
func writeErr(w http.ResponseWriter, err error, extra ...map[string]any) {
	status := http.StatusInternalServerError
	var bad badRequest
	switch {
	case errors.Is(err, rootcause.ErrJobQueueFull):
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1") // the admission-control contract
	case errors.Is(err, alarmdb.ErrNotFound), errors.Is(err, rootcause.ErrJobNotFound):
		status = http.StatusNotFound
	case errors.Is(err, rootcause.ErrJobNotDone), errors.Is(err, rootcause.ErrJobDone),
		errors.Is(err, rootcause.ErrNotLive), errors.Is(err, stream.ErrClosed):
		status = http.StatusConflict
	case errors.As(err, &bad), errors.Is(err, rootcause.ErrDetectorSetup), errors.Is(err, rootcause.ErrBadFilter):
		status = http.StatusBadRequest
	}
	body := map[string]any{"error": err.Error()}
	for _, m := range extra {
		maps.Copy(body, m)
	}
	writeJSON(w, status, body)
}

// maxBodyBytes bounds a JSON request body; the largest legitimate one
// is a batch's alarm-ID list.
const maxBodyBytes = 1 << 20

// decodeBody decodes the request's JSON body into v: at most
// maxBodyBytes, exactly one value, nothing but whitespace after it. With
// optional set an empty body leaves v at its zero value.
func decodeBody(w http.ResponseWriter, r *http.Request, v any, optional bool) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		if optional && err == io.EOF { // Decode returns a bare io.EOF for an empty body
			return nil
		}
		return badRequest{fmt.Errorf("bad body: %v", err)}
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest{errors.New("bad body: data after the JSON value")}
	}
	return nil
}

// streamWriteTimeout bounds one streamed write (an NDJSON batch line or
// an SSE event) to the client. A stalled client — connected but not
// reading — must never pin a goroutine behind TCP backpressure: for the
// NDJSON batch that goroutine is a shared job-worker slot, for SSE it is
// the handler plus its subscription. The deadline turns the stall into
// a write error and the stream tears down.
const streamWriteTimeout = 30 * time.Second

// streamWriter is the one way rcad streams: each write goes out under
// its own deadline and is flushed. The first write commits the 200 and
// the content type, so a request rejected before it still gets a
// regular error response. Writes may come from another goroutine (the
// batch job's worker); close fences them once the handler returns.
type streamWriter struct {
	mu          sync.Mutex
	w           http.ResponseWriter
	rc          *http.ResponseController
	contentType string
	open, done  bool
}

func newStreamWriter(w http.ResponseWriter, contentType string) *streamWriter {
	return &streamWriter{w: w, rc: http.NewResponseController(w), contentType: contentType}
}

// write sends one chunk and reports whether the stream is still alive;
// after a failed write (or close) it is not, and further chunks are
// dropped.
func (sw *streamWriter) write(chunk []byte) bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.done {
		return false
	}
	if !sw.open {
		sw.open = true
		sw.w.Header().Set("Content-Type", sw.contentType)
		sw.w.WriteHeader(http.StatusOK)
	}
	_ = sw.rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)) // unsupported = no deadline, still correct
	_, err := sw.w.Write(chunk)
	if err == nil {
		err = sw.rc.Flush()
	}
	if err != nil {
		log.Printf("rcad: stream write: %v", err)
		sw.done = true
	}
	return !sw.done
}

// close ends the stream and clears the per-write deadline so a
// kept-alive connection is not poisoned for its next request.
func (sw *streamWriter) close() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.done = true
	_ = sw.rc.SetWriteDeadline(time.Time{})
}

// serveSSE streams events as server-sent events, one per value named by
// name, until the source closes, the client disconnects or stops
// reading (write deadline).
func serveSSE[T any](s *server, w http.ResponseWriter, r *http.Request, events <-chan T, name func(T) string) {
	sw := newStreamWriter(w, "text/event-stream")
	defer sw.close()
	w.Header().Set("Cache-Control", "no-cache")
	sw.write(nil) // commit the headers: the client sees the stream open before the first event
	s.sseStreams.Add(1)
	defer s.sseStreams.Add(-1)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-events:
			if !open {
				return
			}
			raw, err := json.Marshal(ev)
			if err != nil {
				log.Printf("rcad: encode event: %v", err)
				return
			}
			if !sw.write(fmt.Appendf(nil, "event: %s\ndata: %s\n\n", name(ev), raw)) {
				return
			}
		}
	}
}
