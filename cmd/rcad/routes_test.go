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

// aliasFixtures gives every legacy-aliased route a concrete request on
// the seeded fixture of newTestServer ({id} = its one filed alarm).
var aliasFixtures = map[string]struct{ path, body string }{
	"GET /health":                {"/health", ""},
	"GET /detectors":             {"/detectors", ""},
	"GET /miners":                {"/miners", ""},
	"POST /detect":               {"/detect", `{"detector":"histogram"}`},
	"GET /alarms":                {"/alarms", ""},
	"GET /alarms/{id}":           {"/alarms/{id}", ""},
	"POST /alarms/{id}/extract":  {"/alarms/{id}/extract", `{"miner":"fpgrowth","ranking":"lift"}`},
	"POST /alarms/{id}/verdict":  {"/alarms/{id}/verdict", `{"validated":true,"note":"seen"}`},
	"POST /extract-batch":        {"/extract-batch", `{"alarm_ids":["{id}","404"],"concurrency":1}`},
	"GET /flows":                 {"/flows?filter=src+ip+10.191.64.165&limit=3", ""},
	"GET /flows (bad filter)":    {"/flows?filter=banana", ""},
	"GET /alarms/{id} (unknown)": {"/alarms/404", ""},
}

// TestRouteAliases: the legacy /api/<x> paths are the same handlers as
// /api/v1/<x>, so they cannot drift. Two identical seeded servers run
// the same request sequence, one through each prefix; status, content
// type and body must match row by row. Every route-table row must also
// be documented in docs/api.md.
func TestRouteAliases(t *testing.T) {
	legacySrv, id := newTestServer(t)
	v1Srv, id2 := newTestServer(t)
	if id != id2 {
		t.Fatalf("fixture alarm IDs differ: %q vs %q", id, id2)
	}
	do := func(base, method, path, body string) (int, string, string) {
		t.Helper()
		req, err := http.NewRequest(method, base+strings.ReplaceAll(path, "{id}", id),
			strings.NewReader(strings.ReplaceAll(body, "{id}", id)))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(raw)
	}
	compare := func(method, key string) {
		t.Helper()
		fx, ok := aliasFixtures[key]
		if !ok {
			t.Errorf("route %q has a legacy alias but no fixture in aliasFixtures", key)
			return
		}
		lc, lt, lb := do(legacySrv.URL, method, "/api"+fx.path, fx.body)
		vc, vt, vb := do(v1Srv.URL, method, "/api/v1"+fx.path, fx.body)
		t.Logf("%-28s %d %s (%d bytes)", key, vc, vt, len(vb))
		if lc != vc || lt != vt || lb != vb {
			t.Errorf("%s diverges:\nlegacy %d %s %s\n    v1 %d %s %s", key, lc, lt, lb, vc, vt, vb)
		}
		if vc == http.StatusNotFound && !strings.Contains(key, "unknown") {
			t.Errorf("%s answered 404: the fixture does not reach the handler", key)
		}
	}
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "api.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range routeTable {
		if !strings.Contains(string(doc), rt.pattern("/api/v1")) {
			t.Errorf("docs/api.md does not document %q", rt.pattern("/api/v1"))
		}
		if rt.legacy {
			compare(rt.method, rt.method+" "+rt.path)
		}
	}
	// The error map is shared too: a 400 and a 404 through both prefixes.
	compare("GET", "GET /flows (bad filter)")
	compare("GET", "GET /alarms/{id} (unknown)")
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
	// Serial scans: the parallel scan pool hands records over in
	// short-lived batches, garbage that scales with the scan and would
	// drown what the handler itself keeps.
	sys, err := rootcause.Create(rootcause.Config{StoreDir: filepath.Join(dir, "flows")},
		rootcause.WithQueryParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	src := flow.MustParseIP("10.9.9.9")
	recs := make([]rootcause.Record, matches)
	for i := range recs {
		recs[i] = rootcause.Record{
			Start: 1_300_000_200 + uint32(i%600), SrcIP: src, DstIP: flow.IP(0xC6120000 + uint32(i)),
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
