// Command flowgen generates labeled synthetic NetFlow traces into a flow
// store — the stand-in for the GEANT/SWITCH NetFlow feeds of the paper's
// deployments. Scenarios bundle a background model with injected,
// ground-truth-annotated anomalies.
//
// Usage:
//
//	flowgen -out /tmp/flows -scenario portscan -bins 30 -sample 100
//
// Scenarios: the classic shortcuts (quiet, portscan, ddos, udpflood,
// table1 — the paper's Table 1 situation) plus the entries of the
// scenario catalog (gen.Names(); docs/scenarios.md documents each).
// Where a catalog name collides with a classic shortcut (quiet,
// portscan, udpflood) the shortcut wins, keeping historical traces
// stable.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/cliflag"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
	"repro/internal/report"
	"repro/internal/shardstore"
	"repro/internal/stream"
)

func main() {
	var (
		out      = flag.String("out", "", "output store directory (required)")
		scenario = flag.String("scenario", "portscan", "scenario: quiet|portscan|ddos|udpflood|table1 or a catalog name (see usage)")
		bins     = flag.Int("bins", 30, "number of measurement bins")
		binSec   = flag.Uint("bin-seconds", nfstore.DefaultBinSeconds, "measurement bin width in seconds")
		pops     = flag.Int("pops", 4, "number of ingress PoPs")
		flowsBin = flag.Int("flows-per-bin", 400, "mean background flows per bin per PoP")
		hosts    = flag.Int("hosts", 2000, "client address pool size")
		servers  = flag.Int("servers", 300, "server address pool size")
		seed     = flag.Uint64("seed", 1, "generation seed")
		sample   = flag.Uint("sample", 1, "packet sampling rate N (1-in-N; 1 = unsampled)")
		start    = flag.Uint("start", 1_300_000_200, "trace start (unix seconds)")
		anomBin  = flag.Int("anomaly-bin", -1, "bin index for the anomaly (-1 = 2/3 of the trace)")
		diurnal  = flag.Bool("diurnal", false, "modulate background volume diurnally")
		segFmt   = flag.Int("segment-format", int(nfstore.DefaultSegmentFormat),
			"segment format for the new store: 1 = fixed rows, 2 = column blocks")
		shards    = flag.Int("shards", 0, "partition the new store into N shards (0/1 = single store)")
		partition = flag.String("shard-partition", shardstore.PartitionTime,
			"sharding scheme with -shards: time (whole bins round-robin) or hash (by router)")
		trace = flag.String("trace", "",
			"replay a real flow trace (nfcapd-style NFTR binary or CSV dump) as the background instead of synthesizing one; anomalies still inject on top")
		live = flag.Bool("live", false,
			"replay the generated trace as an NDJSON record stream in clock order instead of writing a store (to stdout, or to -live-url)")
		rate = flag.Float64("rate", 0,
			"with -live, replay rate in records per second (0 = as fast as possible)")
		liveURL = flag.String("live-url", "",
			"with -live, POST the stream to this rcad base URL's /api/v1/stream/ingest instead of stdout")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `usage: flowgen -out DIR [flags]
       flowgen -live [-rate N] [-live-url URL] [flags]

Generate a labeled synthetic NetFlow trace into a new flow store — the
stand-in for the GEANT/SWITCH feeds of the paper's deployments. The
ground-truth table of injected anomalies is printed on success.

With -live the trace is not stored: it is replayed in clock order as an
NDJSON record stream (one JSON object per line) to stdout, or POSTed to
a live rcad's /api/v1/stream/ingest with -live-url. -rate paces the
replay in records per second (0 = flat out); the ground-truth table
goes to stderr.

With -trace FILE the background is not synthesized: the given flow dump
(nfcapd-style NFTR binary or a CSV export with nfdump-style columns) is
replayed under the scenario clock — the first record lands at -start and
records past the generated span are dropped (and counted). Sampling and
anomaly injection apply on top, so labeled anomalies ride real traffic.

Scenarios (-scenario):
  quiet      background traffic only
  portscan   one scanner sweeping a victim's ports
  ddos       distributed SYN flood on one victim
  udpflood   point-to-point UDP flood (few flows, many packets)
  table1     the paper's Table 1 situation: two scanners + two DDoS

Scenario-catalog names also work (anomalies placed at -anomaly-bin,
background from the flags; docs/scenarios.md documents each) — except
quiet, portscan and udpflood, where the classic shortcuts above win to
keep their historical traces stable:
  %s

Example:
  flowgen -out /tmp/flows -scenario portscan -bins 30 -sample 100
  flowgen -out /tmp/flows -scenario dns-amplification -bins 12
  flowgen -out /tmp/flows -scenario ddos -trace /data/flows.csv

Flags:
`, strings.Join(gen.Names(), ", "))
		flag.PrintDefaults()
	}
	flag.Parse()
	if *out == "" && !*live {
		fmt.Fprintln(os.Stderr, "flowgen: -out is required (or -live to stream)")
		flag.Usage()
		os.Exit(2)
	}
	var traceData []byte
	if *trace != "" {
		var err error
		if traceData, err = os.ReadFile(*trace); err != nil {
			fmt.Fprintln(os.Stderr, "flowgen:", err)
			os.Exit(1)
		}
	}
	binSeconds := cliflag.Narrow[uint32]("flowgen", "bin-seconds", *binSec)
	sampleRate := cliflag.Narrow[uint32]("flowgen", "sample", *sample)
	startTime := cliflag.Narrow[uint32]("flowgen", "start", *start)
	segFormat := cliflag.Narrow[uint16]("flowgen", "segment-format", *segFmt)
	var err error
	if *live {
		err = runLive(os.Stdout, *liveURL, *scenario, *bins, binSeconds, *pops, *flowsBin,
			*hosts, *servers, *seed, sampleRate, startTime, *anomBin, *diurnal, *rate,
			traceData)
	} else {
		err = run(*out, *scenario, *bins, binSeconds, *pops, *flowsBin, *hosts, *servers,
			*seed, sampleRate, startTime, *anomBin, *diurnal, segFormat,
			*shards, *partition, traceData)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowgen:", err)
		os.Exit(1)
	}
}

func run(out, scenarioName string, bins int, binSec uint32, pops, flowsBin, hosts, servers int,
	seed uint64, sample, start uint32, anomBin int, diurnal bool, segFmt uint16,
	shards int, partition string, trace []byte) error {
	var (
		store nfstore.Engine
		err   error
	)
	if shards > 1 {
		store, err = shardstore.Create(out, binSec, shards, partition, segFmt)
	} else {
		store, err = nfstore.CreateFormat(out, binSec, segFmt)
	}
	if err != nil {
		return err
	}
	defer store.Close()

	if anomBin < 0 {
		anomBin = bins * 2 / 3
	}
	placements, err := scenarioPlacements(scenarioName, anomBin, seed)
	if err != nil {
		return err
	}
	s := gen.Scenario{
		Background: gen.Background{
			NumPoPs: pops, FlowsPerBin: flowsBin,
			Hosts: hosts, Servers: servers, Diurnal: diurnal,
		},
		Bins: bins, StartTime: start, Seed: seed,
		SampleRate: sample, Placements: placements,
		Trace: trace,
	}
	truth, err := s.Generate(store)
	if err != nil {
		return err
	}

	fmt.Printf("generated %s: span %s, %d background flows (stored)\n",
		out, truth.Span, truth.BackgroundFlows)
	if truth.TraceDropped > 0 {
		fmt.Printf("replay dropped %d trace records past the generated span\n", truth.TraceDropped)
	}
	if len(truth.Entries) > 0 {
		t := report.New("ground truth", "anno", "kind", "description", "interval",
			"injected flows", "stored flows", "stored packets")
		for _, e := range truth.Entries {
			t.AddRow(fmt.Sprintf("%d", e.Anno), string(e.Kind), e.Describe,
				e.Interval.String(),
				fmt.Sprintf("%d", e.InjectedFlows),
				fmt.Sprintf("%d", e.StoredFlows),
				fmt.Sprintf("%d", e.StoredPkts))
		}
		fmt.Print(t.String())
	}
	return nil
}

// runLive generates the scenario into a write-only collector and replays
// it as an NDJSON record stream in clock order — to w (stdout) or, with a
// base URL, POSTed to rcad's /api/v1/stream/ingest. The ground-truth
// table goes to stderr so the stream stays clean.
func runLive(w io.Writer, baseURL, scenarioName string, bins int, binSec uint32,
	pops, flowsBin, hosts, servers int, seed uint64, sample, start uint32,
	anomBin int, diurnal bool, rate float64, trace []byte) error {
	if anomBin < 0 {
		anomBin = bins * 2 / 3
	}
	placements, err := scenarioPlacements(scenarioName, anomBin, seed)
	if err != nil {
		return err
	}
	col := stream.NewCollector(binSec)
	s := gen.Scenario{
		Background: gen.Background{
			NumPoPs: pops, FlowsPerBin: flowsBin,
			Hosts: hosts, Servers: servers, Diurnal: diurnal,
		},
		Bins: bins, StartTime: start, Seed: seed,
		SampleRate: sample, Placements: placements,
		Trace: trace,
	}
	truth, err := s.Generate(col)
	if err != nil {
		return err
	}
	recs := col.Sorted()

	fmt.Fprintf(os.Stderr, "replaying %d records: span %s, %d background flows\n",
		len(recs), truth.Span, truth.BackgroundFlows)
	if len(truth.Entries) > 0 {
		t := report.New("ground truth", "anno", "kind", "description", "interval",
			"injected flows", "stored flows", "stored packets")
		for _, e := range truth.Entries {
			t.AddRow(fmt.Sprintf("%d", e.Anno), string(e.Kind), e.Describe,
				e.Interval.String(),
				fmt.Sprintf("%d", e.InjectedFlows),
				fmt.Sprintf("%d", e.StoredFlows),
				fmt.Sprintf("%d", e.StoredPkts))
		}
		fmt.Fprint(os.Stderr, t.String())
	}

	if baseURL != "" {
		return postStream(baseURL, recs, rate)
	}
	return emitStream(w, recs, rate)
}

// emitStream writes one NDJSON line per record, pacing to rate records
// per second against a wall-clock schedule (so pacing error does not
// accumulate); rate 0 streams flat out.
func emitStream(w io.Writer, recs []flow.Record, rate float64) error {
	bw := bufio.NewWriter(w)
	began := time.Now()
	for i := range recs {
		if rate > 0 {
			due := began.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(due); d > 0 {
				// Flush before sleeping so a downstream consumer sees a
				// steady trickle, not buffer-sized bursts.
				if err := bw.Flush(); err != nil {
					return err
				}
				time.Sleep(d)
			}
		}
		raw, err := json.Marshal(recs[i])
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(raw, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// postStream streams the records to an rcad ingest endpoint as one
// chunked POST, pacing the request body itself so backpressure flows
// both ways: the server blocks us when its buffer fills, and -rate
// throttles the server.
func postStream(baseURL string, recs []flow.Record, rate float64) error {
	pr, pw := io.Pipe()
	go func() { pw.CloseWithError(emitStream(pw, recs, rate)) }()
	resp, err := http.Post(strings.TrimRight(baseURL, "/")+"/api/v1/stream/ingest",
		"application/x-ndjson", pr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	fmt.Fprintf(os.Stderr, "flowgen: %s\n", bytes.TrimSpace(body))
	return nil
}

// scenarioPlacements maps a scenario name to its anomaly placements: the
// classic shortcuts first (keeping their historical traces stable), then
// the scenario catalog.
func scenarioPlacements(name string, bin int, seed uint64) ([]gen.Placement, error) {
	scanner := flow.MustParseIP("10.191.64.165")
	scanner2 := flow.MustParseIP("10.22.180.9")
	victim := flow.MustParseIP("198.19.137.129")
	switch name {
	case "quiet":
		return nil, nil
	case "portscan":
		return []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 2000, FlowsPerPort: 2, Router: 1}, Bin: bin},
		}, nil
	case "ddos":
		return []gen.Placement{
			{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 2000,
				FlowsPerSource: 3, SourceNet: flow.MustParsePrefix("172.16.0.0/12"),
				Router: 0}, Bin: bin},
		}, nil
	case "udpflood":
		return []gen.Placement{
			{Anomaly: gen.UDPFlood{Src: scanner, Dst: victim, DstPort: 9999,
				Flows: 4, PacketsPerFlow: 2_000_000, Router: 2}, Bin: bin},
		}, nil
	case "table1":
		return []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 62518, FlowsPerPort: 5, Router: 1}, Bin: bin},
			{Anomaly: gen.PortScan{Scanner: scanner2, Victim: victim, SrcPort: 55548,
				Ports: 54148, FlowsPerPort: 5, Router: 2}, Bin: bin},
			{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 18595,
				FlowsPerSource: 2, SrcPort: 3072,
				SourceNet: flow.MustParsePrefix("172.16.0.0/12"), Router: 0}, Bin: bin},
			{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 18640,
				FlowsPerSource: 2, SrcPort: 1024,
				SourceNet: flow.MustParsePrefix("172.16.0.0/12"), Router: 1}, Bin: bin},
		}, nil
	default:
		if def, ok := gen.Lookup(name); ok {
			return def.Placements(seed, bin), nil
		}
		return nil, fmt.Errorf("unknown scenario %q (catalog: %s)", name, strings.Join(gen.Names(), ", "))
	}
}
