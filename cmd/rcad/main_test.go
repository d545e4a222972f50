package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	rootcause "repro"
	"repro/internal/apriori"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/miner"
	"repro/internal/nfstore"
)

// newTestServer builds a system with a scan scenario and one filed alarm,
// wrapped in an httptest server.
func newTestServer(t *testing.T) (*httptest.Server, string) {
	srv, _, id := newTestServerFull(t)
	return srv, id
}

// newTestServerFull is newTestServer exposing the handler state (for
// the SSE stream counter) and accepting system construction options.
func newTestServerFull(t *testing.T, opts ...rootcause.Option) (*httptest.Server, *server, string) {
	t.Helper()
	dir := t.TempDir()
	sys, err := rootcause.Create(rootcause.Config{
		StoreDir:    filepath.Join(dir, "flows"),
		AlarmDBPath: filepath.Join(dir, "alarms.json"),
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	scanner := flow.MustParseIP("10.191.64.165")
	victim := flow.MustParseIP("198.19.137.129")
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 200},
		Bins:       4, StartTime: 1_300_000_200, Seed: 3,
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
	hs := &server{sys: sys}
	srv := httptest.NewServer(hs.routes())
	t.Cleanup(srv.Close)
	return srv, hs, id
}

func getJSON(t *testing.T, url string, into any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

func TestHealth(t *testing.T) {
	srv, _ := newTestServer(t)
	var body map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/health", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body["status"] != "ok" || body["has_data"] != true {
		t.Fatalf("health = %v", body)
	}
}

func TestAlarmListAndGet(t *testing.T) {
	srv, id := newTestServer(t)
	var list []map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/alarms", &list); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(list) != 1 {
		t.Fatalf("%d alarms", len(list))
	}
	var entry map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/alarms/"+id, &entry); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if entry["status"] != "new" {
		t.Fatalf("entry = %v", entry)
	}
	var errBody map[string]string
	if code := getJSON(t, srv.URL+"/api/v1/alarms/404", &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown alarm status %d", code)
	}
}

func TestExtractEndpoint(t *testing.T) {
	srv, id := newTestServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/alarms/"+id+"/extract", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body extractResponse
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.Itemsets) == 0 {
		t.Fatal("no itemsets in response")
	}
	if !strings.Contains(body.Table, "srcIP") {
		t.Fatalf("table missing:\n%s", body.Table)
	}
	if !strings.Contains(body.Itemsets[0].Filter, "src ip 10.191.64.165") {
		t.Fatalf("drill-down filter = %q", body.Itemsets[0].Filter)
	}
	// The alarm is now analyzed.
	var entry map[string]any
	getJSON(t, srv.URL+"/api/v1/alarms/"+id, &entry)
	if entry["status"] != "analyzed" {
		t.Fatalf("post-extract status = %v", entry["status"])
	}
}

func TestVerdictEndpoint(t *testing.T) {
	srv, id := newTestServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/alarms/"+id+"/verdict", "application/json",
		strings.NewReader(`{"validated":true,"note":"confirmed"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var entry map[string]any
	getJSON(t, srv.URL+"/api/v1/alarms/"+id, &entry)
	if entry["status"] != "validated" {
		t.Fatalf("status = %v", entry["status"])
	}
	// Bad body.
	resp, err = http.Post(srv.URL+"/api/v1/alarms/"+id+"/verdict", "application/json",
		strings.NewReader("{broken"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body status %d", resp.StatusCode)
	}
}

func TestFlowsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var body struct {
		Total    int      `json:"total"`
		Returned int      `json:"returned"`
		Flows    []string `json:"flows"`
	}
	url := srv.URL + "/api/v1/flows?filter=" +
		"src+ip+10.191.64.165+and+src+port+55548&limit=5"
	if code := getJSON(t, url, &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if body.Total != 1000 {
		t.Fatalf("total = %d, want 1000 scan flows", body.Total)
	}
	if body.Returned != 5 || len(body.Flows) != 5 {
		t.Fatalf("returned = %d", body.Returned)
	}
	// Bad filter and bad limit.
	var errBody map[string]string
	if code := getJSON(t, srv.URL+"/api/v1/flows?filter=banana", &errBody); code != http.StatusBadRequest {
		t.Fatalf("bad filter status %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/v1/flows?limit=-3", &errBody); code != http.StatusBadRequest {
		t.Fatalf("bad limit status %d", code)
	}
	if code := getJSON(t, srv.URL+"/api/v1/flows?from=abc", &errBody); code != http.StatusBadRequest {
		t.Fatalf("bad from status %d", code)
	}
}

func TestDetectorsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var body struct {
		Detectors []string `json:"detectors"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/detectors", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	want := map[string]bool{"netreflex": false, "histogram": false, "pca": false}
	for _, n := range body.Detectors {
		if _, ok := want[n]; ok {
			want[n] = true
		}
	}
	for n, seen := range want {
		if !seen {
			t.Fatalf("built-in %q missing from %v", n, body.Detectors)
		}
	}
}

// httpDetector is registered from outside the rootcause package and must
// be listed and runnable through the HTTP API.
type httpDetector struct{}

func (httpDetector) Detect(ctx context.Context, _ nfstore.Engine, span flow.Interval) ([]detector.Alarm, error) {
	return []detector.Alarm{{
		Detector: "http-test-detector",
		Interval: flow.Interval{Start: span.Start, End: span.Start + 300},
		Kind:     detector.KindDoS,
	}}, nil
}

func TestDetectEndpoint(t *testing.T) {
	if err := rootcause.RegisterDetector("http-test-detector",
		func() (rootcause.Detector, error) { return httpDetector{}, nil }); err != nil {
		t.Fatal(err)
	}
	srv, _ := newTestServer(t)

	// The externally registered detector is listed...
	var listing struct {
		Detectors []string `json:"detectors"`
	}
	getJSON(t, srv.URL+"/api/v1/detectors", &listing)
	if !slices.Contains(listing.Detectors, "http-test-detector") {
		t.Fatalf("registered detector missing from %v", listing.Detectors)
	}

	// ...and usable: POST /api/v1/detect files its alarms.
	resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json",
		strings.NewReader(`{"detector":"http-test-detector","from":1300000200,"to":1300001400}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body struct {
		AlarmIDs []string `json:"alarm_ids"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if len(body.AlarmIDs) != 1 {
		t.Fatalf("filed %d alarms, want 1", len(body.AlarmIDs))
	}

	// Unknown detector and bad body are 400s.
	for _, payload := range []string{`{"detector":"frobnicator"}`, `{broken`} {
		resp, err := http.Post(srv.URL+"/api/v1/detect", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("payload %q: status %d, want 400", payload, resp.StatusCode)
		}
	}
}

func TestExtractBatchEndpoint(t *testing.T) {
	srv, id := newTestServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/extract-batch", "application/json",
		strings.NewReader(`{"alarm_ids":["`+id+`","404"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q", ct)
	}
	var ok, failed int
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var line batchLine
		if err := dec.Decode(&line); err != nil {
			t.Fatal(err)
		}
		switch {
		case line.Error != "":
			if line.AlarmID != "404" {
				t.Fatalf("unexpected error for %s: %s", line.AlarmID, line.Error)
			}
			failed++
		default:
			if line.AlarmID != id || line.Result == nil || len(line.Result.Itemsets) == 0 {
				t.Fatalf("bad result line: %+v", line)
			}
			ok++
		}
	}
	if ok != 1 || failed != 1 {
		t.Fatalf("ok=%d failed=%d, want 1/1", ok, failed)
	}
	// The extracted alarm is now analyzed; the unknown one obviously not.
	var entry map[string]any
	getJSON(t, srv.URL+"/api/v1/alarms/"+id, &entry)
	if entry["status"] != "analyzed" {
		t.Fatalf("post-batch status = %v", entry["status"])
	}
}

func TestExtractBatchBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	for _, payload := range []string{`{"alarm_ids":[]}`, `{broken`} {
		resp, err := http.Post(srv.URL+"/api/v1/extract-batch", "application/json",
			strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("payload %q: status %d, want 400", payload, resp.StatusCode)
		}
	}
}

func TestExtractUnknownAlarmIs404(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/alarms/404/extract", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}

func TestMinersEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	var body struct {
		Miners []string `json:"miners"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/miners", &body); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for _, want := range []string{"apriori", "fpgrowth"} {
		if !slices.Contains(body.Miners, want) {
			t.Fatalf("miners = %v, missing %q", body.Miners, want)
		}
	}
}

// TestExtractEndpointMinerSelection runs the single-alarm extract once
// per miner and requires identical itemsets, plus a 400 on an unknown
// miner.
func TestExtractEndpointMinerSelection(t *testing.T) {
	srv, id := newTestServer(t)
	extract := func(body string) extractResponse {
		t.Helper()
		resp, err := http.Post(srv.URL+"/api/v1/alarms/"+id+"/extract", "application/json",
			strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var out extractResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	ap := extract(`{"miner":"apriori"}`)
	fp := extract(`{"miner":"fpgrowth"}`)
	if len(ap.Itemsets) == 0 || len(ap.Itemsets) != len(fp.Itemsets) {
		t.Fatalf("apriori %d itemsets, fpgrowth %d", len(ap.Itemsets), len(fp.Itemsets))
	}
	for i := range ap.Itemsets {
		if ap.Itemsets[i] != fp.Itemsets[i] {
			t.Fatalf("row %d differs: %+v vs %+v", i, ap.Itemsets[i], fp.Itemsets[i])
		}
	}

	resp, err := http.Post(srv.URL+"/api/v1/alarms/"+id+"/extract", "application/json",
		strings.NewReader(`{"miner":"frobnicator"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown miner status %d, want 400", resp.StatusCode)
	}
}

// TestExtractBatchMinerSelection drives /api/v1/extract-batch with the
// fpgrowth miner end-to-end.
func TestExtractBatchMinerSelection(t *testing.T) {
	srv, id := newTestServer(t)
	resp, err := http.Post(srv.URL+"/api/v1/extract-batch", "application/json",
		strings.NewReader(`{"alarm_ids":["`+id+`"],"miner":"fpgrowth"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var line batchLine
	if err := json.NewDecoder(resp.Body).Decode(&line); err != nil {
		t.Fatal(err)
	}
	if line.Error != "" {
		t.Fatalf("batch error: %s", line.Error)
	}
	if line.Result == nil || len(line.Result.Itemsets) == 0 {
		t.Fatal("no itemsets in batch result")
	}

	resp, err = http.Post(srv.URL+"/api/v1/extract-batch", "application/json",
		strings.NewReader(`{"alarm_ids":["`+id+`"],"miner":"frobnicator"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown miner status %d, want 400", resp.StatusCode)
	}
}

// --- /api/v1 job surface ---

// jobEnvelope is the {"job": ...} wrapper of the v1 endpoints.
type jobEnvelope struct {
	Job struct {
		ID       string `json:"id"`
		Kind     string `json:"kind"`
		State    string `json:"state"`
		Error    string `json:"error"`
		Progress struct {
			Phase     string `json:"phase"`
			Completed int    `json:"completed"`
			Total     int    `json:"total"`
		} `json:"progress"`
	} `json:"job"`
}

// postJSON POSTs a JSON payload and decodes the response into out.
func postJSON(t *testing.T, url, payload string, out any) int {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// batchPayload builds a batch submission body repeating one alarm ID n
// times (with one job worker, a deliberately slow job for
// cancel/saturation tests).
func batchPayload(t *testing.T, id string, n int) string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = id
	}
	raw, err := json.Marshal(map[string]any{"alarm_ids": ids})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// pollJobState polls GET /api/v1/jobs/{id} until the job reaches state.
func pollJobState(t *testing.T, base, jobID, want string) jobEnvelope {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	var env jobEnvelope
	for time.Now().Before(deadline) {
		if code := getJSON(t, base+"/api/v1/jobs/"+jobID, &env); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if env.Job.State == want {
			return env
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s (state %s)", jobID, want, env.Job.State)
	return env
}

// TestV1SubmitPollResult drives the canonical async flow: submit → 202,
// poll status, fetch the result.
func TestV1SubmitPollResult(t *testing.T) {
	srv, id := newTestServer(t)
	var env jobEnvelope
	code := postJSON(t, srv.URL+"/api/v1/jobs", `{"alarm_id":"`+id+`"}`, &env)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", code)
	}
	if env.Job.ID == "" || env.Job.Kind != "extract" {
		t.Fatalf("submit envelope = %+v", env)
	}
	pollJobState(t, srv.URL, env.Job.ID, "done")

	var res struct {
		Job    map[string]any  `json:"job"`
		Result extractResponse `json:"result"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/jobs/"+env.Job.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if len(res.Result.Itemsets) == 0 {
		t.Fatal("no itemsets in job result")
	}
	if res.Result.AlarmID != id {
		t.Fatalf("result alarm_id = %q, want %q", res.Result.AlarmID, id)
	}
	// The alarm went through the same workflow as a synchronous extract.
	var entry map[string]any
	getJSON(t, srv.URL+"/api/v1/alarms/"+id, &entry)
	if entry["status"] != "analyzed" {
		t.Fatalf("post-job alarm status = %v", entry["status"])
	}
}

// TestSyncExtractEqualsJobResult: the synchronous endpoint (submit +
// wait on the job manager) returns exactly the payload the job result
// carries — one code path, one answer.
func TestSyncExtractEqualsJobResult(t *testing.T) {
	srv, id := newTestServer(t)
	var direct extractResponse
	if code := postJSON(t, srv.URL+"/api/v1/alarms/"+id+"/extract", "", &direct); code != http.StatusOK {
		t.Fatalf("sync extract: status %d", code)
	}
	if len(direct.Itemsets) == 0 {
		t.Fatal("sync extract returned no itemsets")
	}
	var env jobEnvelope
	postJSON(t, srv.URL+"/api/v1/jobs", `{"alarm_id":"`+id+`"}`, &env)
	pollJobState(t, srv.URL, env.Job.ID, "done")
	var job struct {
		Result extractResponse `json:"result"`
	}
	getJSON(t, srv.URL+"/api/v1/jobs/"+env.Job.ID+"/result", &job)

	sraw, _ := json.Marshal(direct)
	jraw, _ := json.Marshal(job.Result)
	if string(sraw) != string(jraw) {
		t.Fatalf("sync and job payloads diverge:\nsync %s\n job %s", sraw, jraw)
	}
}

// TestV1BatchJob submits a batch, waits, and fetches the per-alarm
// results array (with a not-found entry for the bogus ID).
func TestV1BatchJob(t *testing.T) {
	srv, id := newTestServer(t)
	var env jobEnvelope
	code := postJSON(t, srv.URL+"/api/v1/jobs",
		`{"alarm_ids":["`+id+`","404"]}`, &env)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if env.Job.Kind != "extract-batch" {
		t.Fatalf("kind = %q", env.Job.Kind)
	}
	final := pollJobState(t, srv.URL, env.Job.ID, "done")
	if final.Job.Progress.Completed != 2 || final.Job.Progress.Total != 2 {
		t.Fatalf("final progress = %+v", final.Job.Progress)
	}
	var res struct {
		Results []batchLine `json:"results"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/jobs/"+env.Job.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if len(res.Results) != 2 {
		t.Fatalf("%d results", len(res.Results))
	}
	if res.Results[0].AlarmID != id || res.Results[0].Result == nil {
		t.Fatalf("first result = %+v", res.Results[0])
	}
	if res.Results[1].AlarmID != "404" || res.Results[1].Error == "" {
		t.Fatalf("second result = %+v", res.Results[1])
	}
}

// TestV1ResultNotReady: fetching the result of an unfinished job is a
// 409, an unknown job a 404.
func TestV1ResultNotReady(t *testing.T) {
	srv, _, id := newTestServerFull(t, rootcause.WithJobWorkers(1))
	// Park the worker with a long batch so the probe job stays queued.
	var parked jobEnvelope
	postJSON(t, srv.URL+"/api/v1/jobs", batchPayload(t, id, 64), &parked)
	var env jobEnvelope
	code := postJSON(t, srv.URL+"/api/v1/jobs", `{"alarm_id":"`+id+`"}`, &env)
	if code != http.StatusAccepted {
		t.Fatalf("probe submit status %d", code)
	}
	var conflict map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/jobs/"+env.Job.ID+"/result", &conflict); code != http.StatusConflict {
		t.Fatalf("unfinished result status %d, want 409", code)
	}
	var errBody map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/jobs/9999/result", &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown result status %d, want 404", code)
	}
	// Cancel the parked batch so cleanup is fast.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/jobs/"+parked.Job.ID, nil)
	http.DefaultClient.Do(req)
}

// TestV1CancelJob cancels a running batch and observes the canceled
// terminal state.
func TestV1CancelJob(t *testing.T) {
	srv, _, id := newTestServerFull(t, rootcause.WithJobWorkers(1))
	var env jobEnvelope
	code := postJSON(t, srv.URL+"/api/v1/jobs", batchPayload(t, id, 200), &env)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/jobs/"+env.Job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := pollJobState(t, srv.URL, env.Job.ID, "canceled")
	if final.Job.Error == "" {
		t.Fatalf("canceled job carries no error: %+v", final.Job)
	}
	// Canceling again is a 409 (already terminal).
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel status %d, want 409", resp.StatusCode)
	}
	// Unknown job: 404.
	req, _ = http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/jobs/9999", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown cancel status %d, want 404", resp.StatusCode)
	}
}

// TestV1QueueFull429: a saturated manager answers 429 with Retry-After
// instead of blocking the submission.
func TestV1QueueFull429(t *testing.T) {
	srv, _, id := newTestServerFull(t,
		rootcause.WithJobWorkers(1), rootcause.WithJobQueueDepth(1))
	payload := batchPayload(t, id, 200)
	var first, second jobEnvelope
	if code := postJSON(t, srv.URL+"/api/v1/jobs", payload, &first); code != http.StatusAccepted {
		t.Fatalf("first submit status %d", code)
	}
	// The worker may or may not have picked the first job up yet; admit
	// until the queue is provably full, then require the rejection.
	deadline := time.Now().Add(10 * time.Second)
	sawFull := false
	var cancelIDs []string
	cancelIDs = append(cancelIDs, first.Job.ID)
	for time.Now().Before(deadline) {
		resp, err := http.Post(srv.URL+"/api/v1/jobs", "application/json", strings.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			resp.Body.Close()
			sawFull = true
			break
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&second); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		cancelIDs = append(cancelIDs, second.Job.ID)
	}
	if !sawFull {
		t.Fatal("queue never rejected a submission")
	}
	for _, jid := range cancelIDs {
		req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/jobs/"+jid, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// TestV1JobListAndSubmitValidation: the listing carries submitted jobs;
// malformed submissions are 400s.
func TestV1JobListAndSubmitValidation(t *testing.T) {
	srv, id := newTestServer(t)
	var env jobEnvelope
	postJSON(t, srv.URL+"/api/v1/jobs", `{"alarm_id":"`+id+`"}`, &env)
	pollJobState(t, srv.URL, env.Job.ID, "done")
	var listing struct {
		Jobs []map[string]any `json:"jobs"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/jobs", &listing); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(listing.Jobs) == 0 {
		t.Fatal("job listing is empty")
	}
	for _, payload := range []string{
		`{}`,                                     // neither alarm_id nor alarm_ids
		`{broken`,                                // bad JSON
		`{"alarm_id":"1","miner":"frobnicator"}`, // unknown miner
	} {
		var errBody map[string]any
		if code := postJSON(t, srv.URL+"/api/v1/jobs", payload, &errBody); code != http.StatusBadRequest {
			t.Fatalf("payload %q: status %d, want 400", payload, code)
		}
	}
	// Unknown job status fetch is a 404.
	var errBody map[string]any
	if code := getJSON(t, srv.URL+"/api/v1/jobs/9999", &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown job status %d, want 404", code)
	}
}

// readSSE consumes one SSE stream, returning the event names in order.
func readSSE(t *testing.T, body io.Reader) []string {
	t.Helper()
	var events []string
	scanner := bufio.NewScanner(body)
	for scanner.Scan() {
		line := scanner.Text()
		if strings.HasPrefix(line, "event: ") {
			events = append(events, strings.TrimPrefix(line, "event: "))
		}
	}
	return events
}

// TestV1EventsStream: the SSE stream delivers progress events and a
// final "done" event, then ends.
func TestV1EventsStream(t *testing.T) {
	srv, id := newTestServer(t)
	var env jobEnvelope
	postJSON(t, srv.URL+"/api/v1/jobs", `{"alarm_id":"`+id+`"}`, &env)
	resp, err := http.Get(srv.URL + "/api/v1/jobs/" + env.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content-type %q", ct)
	}
	events := readSSE(t, resp.Body)
	if len(events) == 0 {
		t.Fatal("no events received")
	}
	if events[len(events)-1] != "done" {
		t.Fatalf("last event %q, want done (events %v)", events[len(events)-1], events)
	}
	// Subscribing to the finished job yields its terminal snapshot.
	resp2, err := http.Get(srv.URL + "/api/v1/jobs/" + env.Job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	events2 := readSSE(t, resp2.Body)
	if len(events2) != 1 || events2[0] != "done" {
		t.Fatalf("terminal-job events = %v, want [done]", events2)
	}
	// Unknown job: 404.
	resp3, err := http.Get(srv.URL + "/api/v1/jobs/9999/events")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown events status %d, want 404", resp3.StatusCode)
	}
}

// TestV1EventsClientDisconnect: dropping the SSE connection detaches
// the stream (observable through the server's stream counter) without
// disturbing the job.
func TestV1EventsClientDisconnect(t *testing.T) {
	srv, hs, id := newTestServerFull(t, rootcause.WithJobWorkers(1))
	var env jobEnvelope
	postJSON(t, srv.URL+"/api/v1/jobs", batchPayload(t, id, 200), &env)

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		srv.URL+"/api/v1/jobs/"+env.Job.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read the first event so the stream is live, then hang up.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	if n := hs.sseStreams.Load(); n != 1 {
		t.Fatalf("active streams = %d, want 1", n)
	}
	cancel()
	resp.Body.Close()
	deadline := time.Now().Add(10 * time.Second)
	for hs.sseStreams.Load() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never terminated after client disconnect")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The job is unaffected: still known, and cancellable through the
	// API as usual.
	var probe jobEnvelope
	if code := getJSON(t, srv.URL+"/api/v1/jobs/"+env.Job.ID, &probe); code != http.StatusOK {
		t.Fatalf("job vanished after subscriber disconnect: %d", code)
	}
	delReq, _ := http.NewRequest(http.MethodDelete, srv.URL+"/api/v1/jobs/"+env.Job.ID, nil)
	if resp, err := http.DefaultClient.Do(delReq); err == nil {
		resp.Body.Close()
	}
}

// TestHealthReportsJobs: /api/v1/health counts jobs by state and open
// event streams.
func TestHealthReportsJobs(t *testing.T) {
	srv, id := newTestServer(t)
	var env jobEnvelope
	postJSON(t, srv.URL+"/api/v1/jobs", `{"alarm_id":"`+id+`"}`, &env)
	pollJobState(t, srv.URL, env.Job.ID, "done")
	var body struct {
		Jobs         map[string]int `json:"jobs"`
		EventStreams int            `json:"event_streams"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/health", &body); code != http.StatusOK {
		t.Fatalf("health status %d", code)
	}
	if body.Jobs["done"] == 0 {
		t.Fatalf("health jobs = %v, want a done job", body.Jobs)
	}
}

// peakMiner is apriori that records the most Mine calls in flight at
// once. One extraction mines sequentially, so the peak is the most
// extractions a batch ran at once.
type peakMiner struct{ cur, peak atomic.Int32 }

func (m *peakMiner) Mine(ctx context.Context, ds *itemset.Dataset, opts miner.Options) ([]itemset.Frequent, error) {
	c := m.cur.Add(1)
	defer m.cur.Add(-1)
	for p := m.peak.Load(); c > p && !m.peak.CompareAndSwap(p, c); p = m.peak.Load() {
	}
	time.Sleep(time.Millisecond) // let the batch fan-out overlap
	return apriori.Miner{}.Mine(ctx, ds, opts)
}

var widthProbe = &peakMiner{}

func init() {
	if err := rootcause.RegisterMiner("width-probe", func() rootcause.Miner { return widthProbe }); err != nil {
		panic(err)
	}
}

// TestBatchWidthBoundedByJobWorkersHTTP: a batch body still carrying
// the retired "concurrency" field is accepted (unknown fields are
// ignored) and runs no wider than the server's job workers.
func TestBatchWidthBoundedByJobWorkersHTTP(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			srv, _, id := newTestServerFull(t, rootcause.WithJobWorkers(workers))
			widthProbe.peak.Store(0)
			body, err := json.Marshal(map[string]any{
				"alarm_ids": slices.Repeat([]string{id}, 8), "concurrency": 8, "miner": "width-probe",
			})
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(srv.URL+"/api/v1/extract-batch", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status %d", resp.StatusCode)
			}
			lines := 0
			for dec := json.NewDecoder(resp.Body); dec.More(); lines++ {
				var line batchLine
				if err := dec.Decode(&line); err != nil {
					t.Fatal(err)
				}
				if line.Error != "" {
					t.Fatalf("alarm %s: %s", line.AlarmID, line.Error)
				}
			}
			if lines != 8 {
				t.Fatalf("%d NDJSON lines, want 8", lines)
			}
			if p := widthProbe.peak.Load(); p < 1 || p > int32(workers) {
				t.Fatalf("peak concurrent extractions %d, want 1..%d (-job-workers)", p, workers)
			}
		})
	}
}
