package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	rootcause "repro"
	"repro/internal/flow"
)

// routeFixtures gives each of the ten routes that predate /api/v1 a
// concrete request on the seeded fixture of newTestServer ({id} = its
// one filed alarm), plus one 400 and one 404 through the error map.
var routeFixtures = []struct {
	method, path, body string
	status             int
}{
	{"GET", "/health", "", 200},
	{"GET", "/detectors", "", 200},
	{"GET", "/miners", "", 200},
	{"POST", "/detect", `{"detector":"histogram"}`, 200},
	{"GET", "/alarms", "", 200},
	{"GET", "/alarms/{id}", "", 200},
	{"POST", "/alarms/{id}/extract", `{"miner":"fpgrowth","ranking":"lift"}`, 200},
	{"POST", "/alarms/{id}/verdict", `{"validated":true,"note":"seen"}`, 200},
	{"POST", "/extract-batch", `{"alarm_ids":["{id}","404"]}`, 200},
	{"GET", "/flows?filter=src+ip+10.191.64.165&limit=3", "", 200},
	{"GET", "/flows?filter=banana", "", 400},
	{"GET", "/alarms/404", "", 404},
}

// TestRoutesDocumented: every route-table row is documented in
// docs/api.md, every fixture reaches its handler under /api/v1, and the
// pre-v1 /api/<x> paths are gone — the mux's own 404, not a handler's.
func TestRoutesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "api.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range routeTable {
		if !strings.Contains(string(doc), rt.pattern()) {
			t.Errorf("docs/api.md does not document %q", rt.pattern())
		}
	}
	srv, id := newTestServer(t)
	do := func(method, path, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+strings.ReplaceAll(path, "{id}", id),
			strings.NewReader(strings.ReplaceAll(body, "{id}", id)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("Content-Type")
	}
	for _, fx := range routeFixtures {
		if code, _ := do(fx.method, "/api/v1"+fx.path, fx.body); code != fx.status {
			t.Errorf("%s /api/v1%s: status %d, want %d", fx.method, fx.path, code, fx.status)
		}
		if code, ct := do(fx.method, "/api"+fx.path, fx.body); code != http.StatusNotFound || strings.Contains(ct, "json") {
			t.Errorf("%s /api%s: status %d (%s), want the mux's 404", fx.method, fx.path, code, ct)
		}
	}
}

// TestBodyLimits: the one decoder bounds the body and consumes it
// whole, so an oversized body and a body with a second JSON value are
// rejected before anything is queued — on required- and optional-body
// endpoints alike.
func TestBodyLimits(t *testing.T) {
	srv, id := newTestServer(t)
	huge := `{"alarm_id":"` + id + `","miner":"` + strings.Repeat("x", 2<<20) + `"}`
	for _, path := range []string{"/api/v1/jobs", "/api/v1/alarms/" + id + "/extract"} {
		for name, payload := range map[string]string{
			"2 MiB body":     huge,
			"trailing value": `{"alarm_id":"` + id + `"}{"x":1}`,
		} {
			var errBody map[string]any
			if code := postJSON(t, srv.URL+path, payload, &errBody); code != http.StatusBadRequest {
				t.Errorf("%s, %s: status %d, want 400", path, name, code)
			}
		}
	}
	var listing struct {
		Jobs []rootcause.JobStatus `json:"jobs"`
	}
	getJSON(t, srv.URL+"/api/v1/jobs", &listing)
	if len(listing.Jobs) != 0 {
		t.Fatalf("rejected bodies queued %d jobs", len(listing.Jobs))
	}
	// Trailing whitespace is not trailing data, and optional bodies may
	// still be empty.
	var env jobEnvelope
	if code := postJSON(t, srv.URL+"/api/v1/jobs", `{"alarm_id":"`+id+`"}`+"\n \n", &env); code != http.StatusAccepted {
		t.Fatalf("trailing whitespace: status %d, want 202", code)
	}
	var res extractResponse
	if code := postJSON(t, srv.URL+"/api/v1/alarms/"+id+"/extract", "", &res); code != http.StatusOK {
		t.Fatalf("empty optional body: status %d, want 200", code)
	}
}

// TestFlowsLimitBoundsMemory: the drill-down keeps `limit` rows and
// counts the rest, so a limit=1 query over a span with hundreds of
// thousands of matches allocates far less than materialising them.
func TestFlowsLimitBoundsMemory(t *testing.T) {
	const matches = 200_000
	dir := t.TempDir()
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(dir, "flows")})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src := flow.MustParseIP("10.9.9.9")
	// Every record in one bin, so the scan is serial: the parallel scan
	// pool hands records over in short-lived batches, garbage that
	// scales with the scan and would drown what the handler itself keeps.
	recs := make([]rootcause.Record, matches)
	for i := range recs {
		recs[i] = rootcause.Record{
			Start: 1_300_000_200 + uint32(i%300), SrcIP: src, DstIP: flow.IP(0xC6120000 + uint32(i)),
			SrcPort: 4444, DstPort: uint16(i), Proto: 6, Packets: 1, Bytes: 40,
		}
	}
	if err := sys.AddFlows(recs); err != nil {
		t.Fatal(err)
	}
	recs = nil
	h := (&server{sys: sys}).routes()
	query := func(limit int) (total, returned int, allocated uint64) {
		t.Helper()
		req := httptest.NewRequest(http.MethodGet,
			fmt.Sprintf("/api/v1/flows?filter=src+ip+10.9.9.9&limit=%d", limit), nil)
		rec := httptest.NewRecorder()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		h.ServeHTTP(rec, req)
		runtime.ReadMemStats(&after)
		if rec.Code != http.StatusOK {
			t.Fatalf("limit=%d: status %d: %s", limit, rec.Code, rec.Body)
		}
		var body struct {
			Total    int      `json:"total"`
			Returned int      `json:"returned"`
			Flows    []string `json:"flows"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		if len(body.Flows) != body.Returned {
			t.Fatalf("limit=%d: returned=%d but %d rows", limit, body.Returned, len(body.Flows))
		}
		return body.Total, body.Returned, after.TotalAlloc - before.TotalAlloc
	}
	query(1) // warm the zone-map cache and decode pools
	total, returned, allocated := query(1)
	if total != matches || returned != 1 {
		t.Fatalf("limit=1: total=%d returned=%d, want %d/1", total, returned, matches)
	}
	// Materialising the matches costs at least one Record each (slice
	// growth roughly doubles that); the streamed scan must stay well
	// under a quarter of it.
	materialised := uint64(matches) * uint64(unsafe.Sizeof(rootcause.Record{}))
	t.Logf("limit=1 over %d matches allocated %d bytes (materialised: >= %d)", matches, allocated, materialised)
	if allocated > materialised/4 {
		t.Fatalf("limit=1 allocated %d bytes, want < %d: allocation still scales with total", allocated, materialised/4)
	}
}

// TestExtractBatchClientDisconnect: a client that hangs up mid-stream
// makes the rest of the batch unobservable, so its job is canceled
// rather than finished for no one.
func TestExtractBatchClientDisconnect(t *testing.T) {
	srv, _, id := newTestServerFull(t, rootcause.WithJobWorkers(1))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/api/v1/extract-batch",
		strings.NewReader(batchPayload(t, id, 500)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first line so the job is demonstrably running, then hang up.
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()
	// The abandoned transient job stays listed (until its TTL) as canceled.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var listing struct {
			Jobs []rootcause.JobStatus `json:"jobs"`
		}
		getJSON(t, srv.URL+"/api/v1/jobs", &listing)
		if len(listing.Jobs) == 1 && listing.Jobs[0].State == rootcause.JobCanceled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch job not canceled after client disconnect: %+v", listing.Jobs)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
