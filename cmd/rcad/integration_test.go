package main

import (
	"bufio"
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
)

// TestIntegrationHTTP boots the real rcad binary against a generated
// store and drives the job API over the wire: submit → poll → result →
// cancel, plus the synchronous wrapper, then a clean SIGTERM
// shutdown. This is the CI http-integration job's entry point (run
// under -race).
func TestIntegrationHTTP(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	dir := t.TempDir()

	// Build the server binary.
	bin := filepath.Join(dir, "rcad-under-test")
	build := exec.Command(goBin, "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build rcad: %v\n%s", err, out)
	}

	// Generate a store with a port scan and file one alarm.
	storeDir := filepath.Join(dir, "flows")
	dbPath := filepath.Join(dir, "alarms.json")
	sys, err := rootcause.Create(rootcause.Config{StoreDir: storeDir, AlarmDBPath: dbPath})
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
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	// Boot rcad on an ephemeral port and parse the resolved address from
	// its log line.
	cmd := exec.Command(bin,
		"-store", storeDir, "-alarmdb", dbPath,
		"-listen", "127.0.0.1:0", "-job-workers", "1", "-drain", "5s")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	stopped := false
	t.Cleanup(func() {
		if !stopped {
			cmd.Process.Kill()
			<-exited
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
	go func() { exited <- cmd.Wait() }()

	var base string
	select {
	case addr := <-addrCh:
		base = "http://" + addr
	case err := <-exited:
		t.Fatalf("rcad exited before serving: %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("rcad never reported its listen address")
	}

	get := func(path string, into any) int {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if into != nil {
			if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	// Health.
	var health struct {
		Status  string `json:"status"`
		HasData bool   `json:"has_data"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if code := get("/api/v1/health", &health); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never answered 200")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if health.Status != "ok" || !health.HasData {
		t.Fatalf("health = %+v", health)
	}

	// Submit → poll → result.
	var submitted struct {
		Job struct {
			ID    string `json:"id"`
			State string `json:"state"`
		} `json:"job"`
	}
	resp, err := http.Post(base+"/api/v1/jobs", "application/json",
		strings.NewReader(`{"alarm_id":"`+alarmID+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	deadline = time.Now().Add(30 * time.Second)
	for {
		var poll struct {
			Job struct {
				State string `json:"state"`
			} `json:"job"`
		}
		if code := get("/api/v1/jobs/"+submitted.Job.ID, &poll); code != http.StatusOK {
			t.Fatalf("poll status %d", code)
		}
		if poll.Job.State == "done" {
			break
		}
		if poll.Job.State == "failed" || poll.Job.State == "canceled" {
			t.Fatalf("job ended %s", poll.Job.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(20 * time.Millisecond)
	}
	var result struct {
		Result struct {
			AlarmID  string `json:"alarm_id"`
			Itemsets []struct {
				Items string `json:"items"`
			} `json:"itemsets"`
		} `json:"result"`
	}
	if code := get("/api/v1/jobs/"+submitted.Job.ID+"/result", &result); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if result.Result.AlarmID != alarmID || len(result.Result.Itemsets) == 0 {
		t.Fatalf("job result = %+v", result.Result)
	}

	// The synchronous endpoint answers over the same job path.
	resp, err = http.Post(base+"/api/v1/alarms/"+alarmID+"/extract", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var direct struct {
		Itemsets []struct {
			Items string `json:"items"`
		} `json:"itemsets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&direct); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(direct.Itemsets) == 0 {
		t.Fatalf("sync extract: status %d, %d itemsets", resp.StatusCode, len(direct.Itemsets))
	}
	if direct.Itemsets[0].Items != result.Result.Itemsets[0].Items {
		t.Fatalf("sync top itemset %q != job top itemset %q",
			direct.Itemsets[0].Items, result.Result.Itemsets[0].Items)
	}

	// Submit a long batch and cancel it over the wire.
	ids := make([]string, 200)
	for i := range ids {
		ids[i] = alarmID
	}
	raw, _ := json.Marshal(map[string]any{"alarm_ids": ids})
	resp, err = http.Post(base+"/api/v1/jobs", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var batch struct {
		Job struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	req, _ := http.NewRequest(http.MethodDelete, base+"/api/v1/jobs/"+batch.Job.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", dresp.StatusCode)
	}
	deadline = time.Now().Add(30 * time.Second)
	for {
		var poll struct {
			Job struct {
				State string `json:"state"`
			} `json:"job"`
		}
		get("/api/v1/jobs/"+batch.Job.ID, &poll)
		if poll.Job.State == "canceled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batch never canceled (state %s)", poll.Job.State)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Clean shutdown on SIGTERM.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-exited:
		stopped = true
		if err != nil {
			t.Fatalf("rcad exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rcad never exited after SIGTERM")
	}
}
