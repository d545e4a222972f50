// Pipeline runs the paper's full Figure 1 architecture: a multi-PoP trace
// with several co-occurring anomalies, the simulated NetReflex detector
// filing alarms into the alarm database, extraction per alarm, drill-down
// and operator verdicts — the complete NOC workflow the demo showed.
//
// Run with:
//
//	go run ./examples/pipeline
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	rootcause "repro"
	"repro/internal/flow"
	"repro/internal/gen"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "pipeline-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sys, err := rootcause.Create(rootcause.Config{
		StoreDir:    dir + "/flows",
		AlarmDBPath: dir + "/alarms.json",
	}, rootcause.WithJobWorkers(2)) // a batch job extracts this many alarms at once
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()

	// A day-fragment of traffic over 4 PoPs with three anomalies:
	// a port scan, a DDoS and a point-to-point UDP flood.
	scanner := flow.MustParseIP("10.191.64.165")
	victim := flow.MustParseIP("198.19.137.129")
	floodSrc := flow.MustParseIP("10.66.66.66")
	floodDst := flow.MustParseIP("198.19.0.200")
	scenario := gen.Scenario{
		Background: gen.Background{NumPoPs: 4, FlowsPerBin: 250},
		Bins:       30, StartTime: 1_300_000_200, Seed: 99,
		Placements: []gen.Placement{
			{Anomaly: gen.PortScan{Scanner: scanner, Victim: victim, SrcPort: 55548,
				Ports: 1500, FlowsPerPort: 2, Router: 1}, Bin: 18},
			{Anomaly: gen.SYNFlood{Victim: victim, DstPort: 80, Sources: 800,
				FlowsPerSource: 3, SourceNet: flow.MustParsePrefix("172.16.0.0/12"),
				Router: 2}, Bin: 24},
			{Anomaly: gen.UDPFlood{Src: floodSrc, Dst: floodDst, DstPort: 9999,
				Flows: 4, PacketsPerFlow: 2_000_000, Router: 3}, Bin: 27},
		},
	}
	fmt.Println("1. generating trace (30 bins x 4 PoPs)...")
	truth, err := scenario.Generate(sys.Store())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %d background flows, %d anomalies injected\n",
		truth.BackgroundFlows, len(truth.Entries))

	fmt.Println("2. running NetReflex over the trace...")
	ids, err := sys.Detect(ctx, "netreflex", truth.Span)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   %d alarm(s) filed\n", len(ids))

	// Batch extraction is a job: it fans the alarms out over the job
	// workers, streams each outcome as it completes, and Wait returns
	// them in submission order.
	fmt.Println("3. extracting all alarms (2 job workers):")
	jobID, err := sys.Submit(rootcause.JobRequest{AlarmIDs: ids},
		rootcause.WithBatchResults(func(br rootcause.ExtractResult) {
			fmt.Printf("   alarm %s done\n", br.AlarmID)
		}))
	if err != nil {
		log.Fatal(err)
	}
	batch, err := sys.Wait(ctx, jobID)
	if err != nil {
		log.Fatal(err)
	}
	for _, br := range batch.Batch {
		id := br.AlarmID
		entry, err := sys.Alarm(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n--- alarm %s: %s\n", id, entry.Alarm.String())
		if br.Err != nil {
			fmt.Printf("    extraction failed: %v\n", br.Err)
			continue
		}
		res := br.Result
		fmt.Print(res.Table().String())

		// Operator verdict: validate when the itemsets identify a known
		// injected anomaly (in the NOC this is the human's call).
		validated := false
		for i := range res.Itemsets {
			flows, err := sys.ItemsetFlows(ctx, res.Alarm.Interval, &res.Itemsets[i])
			if err != nil {
				log.Fatal(err)
			}
			anomalous := 0
			for j := range flows {
				if flows[j].IsAnomalous() {
					anomalous++
				}
			}
			if len(flows) > 0 && float64(anomalous) > 0.8*float64(len(flows)) {
				validated = true
			}
		}
		if err := sys.SetVerdict(id, validated, "pipeline example verdict"); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("    verdict: validated=%v\n", validated)
	}

	fmt.Println("\n4. final alarm database state:")
	for _, e := range sys.Alarms(truth.Span) {
		fmt.Printf("   alarm %s [%s] %s %s\n", e.Alarm.ID, e.Status, e.Alarm.Kind, e.Alarm.Interval)
	}
}
