// Live streaming surface (-live): continuous NDJSON ingest and the SSE
// incident tail. Both endpoints answer 409 on a system built without
// -live, so the routes are always registered and discoverable.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"

	rootcause "repro"
)

// ingestMaxLine bounds one NDJSON ingest line; a record is ~200 bytes,
// so 1 MiB only rejects garbage, not traffic.
const ingestMaxLine = 1 << 20

// storeExists reports whether dir already holds a plain or sharded
// flow store.
func storeExists(dir string) bool {
	for _, manifest := range []string{"store.json", "shards.json"} {
		if _, err := os.Stat(filepath.Join(dir, manifest)); err == nil {
			return true
		}
	}
	return false
}

// handleStreamIngest consumes an NDJSON stream of flow records into the
// live pipeline, blocking per record while the ingest buffer is full
// (backpressure propagates to the HTTP client through flow control).
// The response reports how many records were accepted, on failure too:
// a malformed line fails the request with its line number, but records
// before it are already ingested — the stream is append-only, not
// transactional.
func (s *server) handleStreamIngest(w http.ResponseWriter, r *http.Request) (any, error) {
	if !s.sys.Live() {
		return nil, rootcause.ErrNotLive
	}
	sc := bufio.NewScanner(r.Body)
	sc.Buffer(make([]byte, 64*1024), ingestMaxLine)
	var n uint64
	fail := func(err error) (any, error) {
		writeErr(w, err, map[string]any{"ingested": n})
		return nil, nil
	}
	for line := 1; sc.Scan(); line++ {
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var rec rootcause.Record
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fail(badRequest{fmt.Errorf("line %d: %v", line, err)})
		}
		if err := s.sys.Ingest(r.Context(), &rec); err != nil {
			if r.Context().Err() != nil {
				return nil, nil // client gone; nothing to answer
			}
			return fail(err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return fail(badRequest{err})
	}
	return map[string]any{"ingested": n}, nil
}

// handleStreamIncidents tails the live incident feed as server-sent
// events: one event per StreamEvent ("incident", "extracted", "error"),
// named by its type. The stream closes when live mode drains or the
// client disconnects; a client that stops reading is torn down by the
// per-event write deadline, and the feed drops events to slow consumers
// rather than stalling the watcher.
func (s *server) handleStreamIncidents(w http.ResponseWriter, r *http.Request) (any, error) {
	events, cancel, err := s.sys.TailIncidents()
	if err != nil {
		return nil, err
	}
	defer cancel()
	serveSSE(s, w, r, events, func(ev rootcause.StreamEvent) string { return ev.Type })
	return nil, nil
}
