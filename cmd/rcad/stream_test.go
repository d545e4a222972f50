package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"maps"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	rootcause "repro"
	"repro/internal/gen"
	"repro/internal/stream"
)

// newLiveServer builds an empty live-mode system wrapped in an httptest
// server; records arrive only through the ingest endpoint.
func newLiveServer(t *testing.T, cfg rootcause.LiveConfig) (*httptest.Server, *server) {
	t.Helper()
	dir := t.TempDir()
	sys, err := rootcause.Create(rootcause.Config{
		StoreDir:    filepath.Join(dir, "flows"),
		AlarmDBPath: filepath.Join(dir, "alarms.json"),
	}, rootcause.WithLive(cfg))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	hs := &server{sys: sys}
	srv := httptest.NewServer(hs.routes())
	t.Cleanup(srv.Close)
	return srv, hs
}

func TestStreamEndpointsRequireLive(t *testing.T) {
	srv, _, _ := newTestServerFull(t) // batch-mode system
	resp, err := http.Post(srv.URL+"/api/v1/stream/ingest", "application/x-ndjson",
		strings.NewReader(`{"start":1,"src":"10.0.0.1","dst":"10.0.0.2","proto":"tcp","packets":1,"bytes":40}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("ingest on batch system: status %d, want 409", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/api/v1/stream/incidents")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("tail on batch system: status %d, want 409", resp.StatusCode)
	}
}

func TestStreamIngestCountsAndRejects(t *testing.T) {
	srv, hs := newLiveServer(t, rootcause.LiveConfig{DisableAutoExtract: true})

	body := strings.Join([]string{
		`{"start":1300000200,"src":"10.0.0.1","dst":"198.18.0.1","dport":80,"proto":"tcp","packets":2,"bytes":120}`,
		``, // blank lines are skipped, not counted
		`{"start":1300000201,"src":"10.0.0.2","dst":"198.18.0.1","dport":80,"proto":"udp","packets":1,"bytes":60}`,
	}, "\n")
	resp, err := http.Post(srv.URL+"/api/v1/stream/ingest", "application/x-ndjson",
		strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		Ingested uint64 `json:"ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || accepted.Ingested != 2 {
		t.Fatalf("status %d ingested %d, want 200/2", resp.StatusCode, accepted.Ingested)
	}

	// A malformed line fails with its line number; the record before it
	// is already in (append-only, not transactional).
	bad := `{"start":1300000202,"src":"10.0.0.3","dst":"198.18.0.1","proto":"tcp","packets":1,"bytes":40}` +
		"\n" + `{"start":1300000203,"src":"not-an-ip","dst":"198.18.0.1","proto":"tcp","packets":1,"bytes":40}`
	resp, err = http.Post(srv.URL+"/api/v1/stream/ingest", "application/x-ndjson",
		strings.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	var rejected struct {
		Error    string `json:"error"`
		Ingested uint64 `json:"ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rejected); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed line: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(rejected.Error, "line 2") || rejected.Ingested != 1 {
		t.Fatalf("rejection = %+v, want line 2 after 1 ingested", rejected)
	}

	// The census surfaces the stream section with everything accepted.
	var health struct {
		Stream *rootcause.StreamStats `json:"stream"`
	}
	// The ingest response acknowledges the enqueue; the census counts a
	// record once the pipeline worker has consumed it, so poll for it.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		getJSON(t, srv.URL+"/api/v1/health", &health)
		if health.Stream == nil {
			t.Fatal("health has no stream section on a live system")
		}
		if health.Stream.Ingested == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("health stream ingested = %d, want 3", health.Stream.Ingested)
		}
	}
	if hs.sseStreams.Load() != 0 {
		t.Fatalf("sse streams = %d, want 0", hs.sseStreams.Load())
	}
}

// TestStreamLiveEndToEndHTTP drives the full loop over the wire: a
// catalog scenario is replayed through POST /api/v1/stream/ingest and
// the SSE tail must announce an auto-extracted incident covering the
// ground-truth interval — no manual detect/correlate/extract calls.
func TestStreamLiveEndToEndHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("full live replay")
	}
	srv, hs := newLiveServer(t, rootcause.LiveConfig{})

	def, ok := gen.Lookup("ddos-syn")
	if !ok {
		t.Fatal("ddos-syn not in catalog")
	}
	col := stream.NewCollector(300)
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 150, Hosts: 500, Servers: 80},
		Bins:       4, StartTime: 1_300_000_200, Seed: 42,
		Placements: def.Placements(42, 2),
	}
	truth, err := scenario.Generate(col)
	if err != nil {
		t.Fatal(err)
	}

	// Tail first, so no event is missed.
	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/api/v1/stream/incidents", nil)
	tail, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Body.Close()
	if tail.StatusCode != http.StatusOK {
		t.Fatalf("tail status %d", tail.StatusCode)
	}
	events := make(chan rootcause.StreamEvent, 64)
	go func() {
		defer close(events)
		sc := bufio.NewScanner(tail.Body)
		sc.Buffer(make([]byte, 64*1024), 4<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if !bytes.HasPrefix(line, []byte("data:")) {
				continue
			}
			var ev rootcause.StreamEvent
			if err := json.Unmarshal(bytes.TrimSpace(line[len("data:"):]), &ev); err == nil {
				events <- ev
			}
		}
	}()

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range col.Sorted() {
		if err := enc.Encode(rec); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.Post(srv.URL+"/api/v1/stream/ingest", "application/x-ndjson", &buf)
	if err != nil {
		t.Fatal(err)
	}
	var accepted struct {
		Ingested uint64 `json:"ingested"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&accepted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status %d", resp.StatusCode)
	}

	// Drain seals the tail bins and waits out the watcher; the SSE feed
	// then closes, ending the collector goroutine.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := hs.sys.DrainLive(ctx); err != nil {
		t.Fatal(err)
	}

	want := truth.Entries[0].Interval
	var extracted *rootcause.StreamEvent
	for ev := range events {
		if ev.Type == rootcause.StreamEventExtracted &&
			ev.Incident.Incident.Interval.Overlaps(want) {
			e := ev
			extracted = &e
		}
	}
	if extracted == nil {
		t.Fatalf("no extracted event over the flood interval %s", want)
	}
	if extracted.Result == nil || len(extracted.Result.Itemsets) == 0 {
		t.Fatal("extracted event carries no itemsets")
	}
	top := extracted.Result.Itemsets[0].Items.String()
	if !strings.Contains(top, "198.19.7.7") {
		t.Fatalf("top itemset %q does not name the flood victim", top)
	}
}

// TestCorrelateManualPassKeepsLivePolicy: a manual correlation pass
// midway through a live replay — the façade call and POST
// /api/v1/correlate carrying the retired tuning fields — runs the live
// watcher's one policy, so it leaves every incident ID and status as
// the watcher made them, and every incident the watcher opens still
// gets exactly one auto-extraction.
func TestCorrelateManualPassKeepsLivePolicy(t *testing.T) {
	// CUSUM alone stays quiet between the floods on this small background.
	srv, hs := newLiveServer(t, rootcause.LiveConfig{Detectors: []string{stream.CUSUMName}})
	sys := hs.sys
	events, cancel, err := sys.TailIncidents()
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	var collected []rootcause.StreamEvent
	tailDone := make(chan struct{})
	go func() {
		defer close(tailDone)
		for ev := range events {
			collected = append(collected, ev)
		}
	}()

	// Two floods 35 minutes apart: past the 600 s cluster gap, so two
	// incidents that a 3000 s gap would merge into one.
	const t0, bins = 1_300_000_200, 16
	ddos, _ := gen.Lookup("ddos-syn")
	udp, _ := gen.Lookup("udpflood")
	col := stream.NewCollector(300)
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 150, Hosts: 500, Servers: 80},
		Bins:       bins, StartTime: t0, Seed: 42,
		Placements: append(ddos.Placements(42, 2), udp.Placements(42, 10)...),
	}
	if _, err := scenario.Generate(col); err != nil {
		t.Fatal(err)
	}
	recs := col.Sorted()
	ctx := context.Background()
	ingest := func(from, to uint32) {
		for i := range recs {
			if recs[i].Start >= from && recs[i].Start < to {
				if err := sys.Ingest(ctx, &recs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// First part: bins 0-12 seal once bin 13's first record arrives.
	const mid = t0 + 13*300 + 1
	ingest(0, mid)
	before := waitLiveIdle(t, sys)
	// The manual passes, with the retired tuning fields in the body.
	sum, err := sys.Correlate(ctx, bodySpan(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	var httpSum rootcause.CorrelationSummary
	body := `{"dedup_window":60,"cluster_gap":3000,"min_confidence":0.9}`
	if code := postJSON(t, srv.URL+"/api/v1/correlate", body, &httpSum); code != http.StatusOK {
		t.Fatalf("correlate status %d", code)
	}
	if !slices.Equal(httpSum.IncidentIDs, sum.IncidentIDs) {
		t.Fatalf("POST /correlate returned %v, the façade pass %v", httpSum.IncidentIDs, sum.IncidentIDs)
	}
	if after := incidentStatuses(sys); !maps.Equal(after, before) {
		t.Fatalf("manual passes changed the incidents:\nbefore %v\nafter  %v", before, after)
	}

	// Second half, then drain: the watcher keeps auto-extracting.
	ingest(mid, ^uint32(0))
	if err := sys.DrainLive(ctx); err != nil {
		t.Fatal(err)
	}
	<-tailDone
	opened := map[string]int{}
	extracted := map[string]int{}
	for _, ev := range collected {
		switch ev.Type {
		case rootcause.StreamEventIncident:
			opened[ev.IncidentID]++
		case rootcause.StreamEventExtracted:
			extracted[ev.IncidentID]++
		case rootcause.StreamEventError:
			t.Fatalf("error event on the feed: %+v", ev)
		}
	}
	for id, st := range incidentStatuses(sys) {
		switch {
		case st == rootcause.IncidentOpen:
			t.Fatalf("incident %s left open after the drain (never auto-extracted)", id)
		case st == rootcause.IncidentExtracted && (opened[id] != 1 || extracted[id] != 1):
			t.Fatalf("incident %s: %d submissions, %d extractions, want 1/1", id, opened[id], extracted[id])
		case opened[id] > 1:
			t.Fatalf("incident %s submitted %d times", id, opened[id])
		}
	}
}

// incidentStatuses maps every stored incident to its lifecycle status.
func incidentStatuses(sys *rootcause.System) map[string]rootcause.IncidentStatus {
	out := map[string]rootcause.IncidentStatus{}
	for _, e := range sys.Incidents(rootcause.Interval{}) {
		out[e.Incident.ID] = e.Status
	}
	return out
}

// waitLiveIdle waits until the live system has settled: no sealed batch
// waits for the watcher, no incident awaits its extraction, and the
// incident census has not moved for a while. It returns that census.
func waitLiveIdle(t *testing.T, sys *rootcause.System) map[string]rootcause.IncidentStatus {
	t.Helper()
	var last map[string]rootcause.IncidentStatus
	stable := 0
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		cur := incidentStatuses(sys)
		idle := sys.StreamStats().WatcherBacklog == 0
		for _, st := range cur {
			idle = idle && st != rootcause.IncidentOpen
		}
		if !idle || !maps.Equal(cur, last) {
			last, stable = cur, 0
			continue
		}
		if stable++; stable == 10 {
			return cur
		}
	}
	t.Fatalf("live system never settled: incidents %v", last)
	return nil
}

// TestSealLagRange pins that a -seal-lag beyond uint32 seconds is
// refused with exit code 2, instead of wrapping to a different lag.
func TestSealLagRange(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "rcad-under-test")
	if out, err := exec.Command(goBin, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build rcad: %v\n%s", err, out)
	}
	// A regression would start serving: the deadline kills it.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, bin, "-store", filepath.Join(dir, "flows"), "-live",
		"-seal-lag", "4294967296", "-listen", "127.0.0.1:0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("rcad -seal-lag 4294967296: err %v, want exit code 2; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "-seal-lag 4294967296") {
		t.Fatalf("stderr does not name the flag:\n%s", stderr.String())
	}
}
