package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	rootcause "repro"
	"repro/internal/detector"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/shardstore"
)

// rcadProc is one rcad process under test with its resolved base URL.
type rcadProc struct {
	cmd    *exec.Cmd
	base   string
	exited chan error
	done   bool
}

// bootRcad starts the rcad binary with the given flags plus an
// ephemeral listen address and waits for its "serving on" log line.
func bootRcad(t *testing.T, bin string, args ...string) *rcadProc {
	t.Helper()
	cmd := exec.Command(bin, append(args, "-listen", "127.0.0.1:0")...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &rcadProc{cmd: cmd, exited: make(chan error, 1)}
	t.Cleanup(func() {
		if !p.done {
			cmd.Process.Kill()
			<-p.exited
		}
	})

	addrRe := regexp.MustCompile(`serving on (\S+)`)
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
	}()
	go func() { p.exited <- cmd.Wait() }()

	select {
	case addr := <-addrCh:
		p.base = "http://" + addr
	case err := <-p.exited:
		t.Fatalf("rcad exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("rcad never reported its listen address")
	}
	return p
}

// term sends SIGTERM and waits for a clean exit.
func (p *rcadProc) term(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.exited:
		p.done = true
		if err != nil {
			t.Fatalf("rcad exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rcad never exited after SIGTERM")
	}
}

// kill SIGKILLs the process, simulating a dead cluster node.
func (p *rcadProc) kill(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-p.exited
	p.done = true
}

// TestIntegrationCluster boots a real 3-node rcad cluster — three peer
// nodes each serving one shard of a hash-partitioned store, plus a
// coordinator started with -peers — and verifies extraction through the
// coordinator matches the in-process sharded result, the health
// endpoint lists every peer, and a SIGKILLed peer turns into a loud
// shard-named error rather than a hang or silent truncation. This is
// the CI shard-smoke job's entry point (run under -race).
func TestIntegrationCluster(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()

	bin := filepath.Join(dir, "rcad-under-test")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build rcad: %v\n%s", err, out)
	}

	// Generate a 3-shard store with a port scan, file an alarm, and
	// compute the expected extraction in-process over the same shards.
	storeDir := filepath.Join(dir, "flows")
	dbPath := filepath.Join(dir, "alarms.json")
	sys, err := rootcause.Create(rootcause.Config{StoreDir: storeDir, AlarmDBPath: dbPath},
		rootcause.WithShards(3))
	if err != nil {
		t.Fatal(err)
	}
	scanner := flow.MustParseIP("10.191.64.165")
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 2, FlowsPerBin: 200},
		Bins:       4, StartTime: 1_300_000_200, Seed: 13,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: flow.MustParseIP("198.19.137.129"),
				SrcPort: 55548, Ports: 1000, FlowsPerPort: 1, Router: 1}, Bin: 2},
		},
	}
	truth, err := scenario.Generate(sys.Store())
	if err != nil {
		t.Fatal(err)
	}
	alarmID := sys.FileAlarm(rootcause.Alarm{
		Detector: "test",
		Interval: truth.Entries[0].Interval,
		Kind:     detector.KindPortScan,
		Meta:     []detector.MetaItem{{Feature: flow.FeatSrcIP, Value: uint32(scanner)}},
	})
	expected, err := sys.Extract(context.Background(), alarmID)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	shardDirs, err := shardstore.ShardDirs(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(shardDirs) != 3 {
		t.Fatalf("shard dirs = %v, want 3", shardDirs)
	}

	// Each peer node serves one shard directory — a plain flow store.
	peers := make([]*rcadProc, 3)
	urls := make([]string, 3)
	for i, sd := range shardDirs {
		peers[i] = bootRcad(t, bin, "-store", sd)
		urls[i] = peers[i].base
	}
	coord := bootRcad(t, bin,
		"-peers", strings.Join(urls, ","),
		"-alarmdb", dbPath, "-drain", "5s")

	// Health on the coordinator aggregates the cluster: has_data from
	// the merged span, one shards row per peer URL.
	var health struct {
		Status  string `json:"status"`
		HasData bool   `json:"has_data"`
		Shards  []struct {
			Shard string `json:"shard"`
			Error string `json:"error"`
		} `json:"shards"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(coord.base + "/api/v1/health")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&health)
			resp.Body.Close()
			if err == nil && resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("coordinator health never answered: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if health.Status != "ok" || !health.HasData {
		t.Fatalf("health = %+v", health)
	}
	if len(health.Shards) != 3 {
		t.Fatalf("health lists %d shards, want 3: %+v", len(health.Shards), health.Shards)
	}
	for i, sh := range health.Shards {
		if sh.Shard != urls[i] {
			t.Errorf("shard %d = %q, want peer %q", i, sh.Shard, urls[i])
		}
		if sh.Error != "" {
			t.Errorf("shard %d reports error %q with all peers up", i, sh.Error)
		}
	}

	// Extraction through the coordinator must match the in-process
	// sharded extraction exactly.
	extract := func() (int, extractResponse, string) {
		resp, err := http.Post(coord.base+"/api/v1/alarms/"+alarmID+"/extract", "application/json", nil)
		if err != nil {
			t.Fatalf("extract: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var out extractResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.Unmarshal(raw, &out); err != nil {
				t.Fatalf("decode extract: %v\n%s", err, raw)
			}
		}
		return resp.StatusCode, out, string(bytes.TrimSpace(raw))
	}
	code, got, _ := extract()
	if code != http.StatusOK {
		t.Fatalf("extract status %d", code)
	}
	if got.CandidateFlows != expected.CandidateFlows || got.CandidatePackets != expected.CandidatePackets {
		t.Fatalf("cluster candidates (%d flows, %d packets) != in-process (%d, %d)",
			got.CandidateFlows, got.CandidatePackets, expected.CandidateFlows, expected.CandidatePackets)
	}
	if len(got.Itemsets) != len(expected.Itemsets) {
		t.Fatalf("cluster extracted %d itemsets, in-process %d", len(got.Itemsets), len(expected.Itemsets))
	}
	for i := range got.Itemsets {
		want := &expected.Itemsets[i]
		g := &got.Itemsets[i]
		if g.Items != want.Items.String() || g.FlowSupport != want.FlowSupport || g.PacketSupport != want.PacketSupport {
			t.Errorf("itemset %d: cluster %q (%d/%d) != in-process %q (%d/%d)",
				i, g.Items, g.FlowSupport, g.PacketSupport,
				want.Items.String(), want.FlowSupport, want.PacketSupport)
		}
	}

	// Kill one peer: extraction must fail fast with an error naming the
	// dead shard — never hang, never silently return partial flows.
	peers[2].kill(t)
	code, _, body := extract()
	if code < 500 {
		t.Fatalf("extract with a dead peer answered %d, want 5xx: %s", code, body)
	}
	if !strings.Contains(body, urls[2]) {
		t.Fatalf("dead-peer error does not name the shard %q: %s", urls[2], body)
	}

	// The drill-down fails the same way, and as the server's fault: a
	// dead peer is a 5xx naming the peer, not a 400.
	fresp, err := http.Get(coord.base + "/api/v1/flows?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	fraw, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode < 500 || !strings.Contains(string(fraw), urls[2]) {
		t.Fatalf("flows with a dead peer: status %d body %s, want 5xx naming %q", fresp.StatusCode, fraw, urls[2])
	}

	// Health keeps answering — degraded, with the failure pinned to the
	// dead peer's row.
	resp, err := http.Get(coord.base + "/api/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	health.Shards = nil
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health with a dead peer answered %d, want 200", resp.StatusCode)
	}
	if health.Status != "degraded" {
		t.Errorf("health status with a dead peer = %q, want degraded", health.Status)
	}
	var deadRows int
	for _, sh := range health.Shards {
		if sh.Error != "" {
			deadRows++
			if sh.Shard != urls[2] {
				t.Errorf("error pinned to %q, want dead peer %q", sh.Shard, urls[2])
			}
		}
	}
	if deadRows != 1 {
		t.Errorf("health reports %d dead shards, want 1: %+v", deadRows, health.Shards)
	}

	// Clean shutdown: coordinator first, then the surviving peers.
	coord.term(t)
	peers[0].term(t)
	peers[1].term(t)
}
