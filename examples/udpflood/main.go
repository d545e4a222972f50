// Udpflood demonstrates why the paper extended Apriori with packet-based
// support: a point-to-point UDP flood exports a handful of flow records
// carrying millions of packets. Classic flow-support Apriori cannot see
// it; the extended engine mines the packet dimension and surfaces it.
//
// Run with:
//
//	go run ./examples/udpflood
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
	dir, err := os.MkdirTemp("", "udpflood-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	src := flow.MustParseIP("10.55.55.55")
	dst := flow.MustParseIP("198.19.0.77")

	for _, mode := range []struct {
		name string
		opts rootcause.ExtractionOptions
	}{
		// Flow-only engine (classic IMC'09 Apriori).
		{"classic Apriori (flow support only)", rootcause.ExtractionOptions{FlowOnly: true}},
		{"extended Apriori (flow + packet support)", rootcause.DefaultExtractionOptions()},
	} {
		sys, err := rootcause.Create(rootcause.Config{StoreDir: fmt.Sprintf("%s/flows-%p", dir, &mode)})
		if err != nil {
			log.Fatal(err)
		}
		scenario := gen.Scenario{
			Background: gen.Background{NumPoPs: 2, FlowsPerBin: 400},
			Bins:       4, StartTime: 1_300_000_200, Seed: 5,
			Placements: []gen.Placement{
				// 4 flow records, 2M packets each: the GEANT-style
				// point-to-point UDP flood.
				{Anomaly: gen.UDPFlood{Src: src, Dst: dst, DstPort: 9999,
					Flows: 4, PacketsPerFlow: 2_000_000, Router: 1}, Bin: 2},
			},
		}
		truth, err := scenario.Generate(sys.Store())
		if err != nil {
			log.Fatal(err)
		}
		res, err := sys.ExtractAlarm(context.Background(), &rootcause.Alarm{
			Detector: "example", Interval: truth.Entries[0].Interval,
		}, rootcause.WithExtractionOptions(mode.opts))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("=== %s ===\n", mode.name)
		fmt.Print(res.Table().String())
		found := false
		for _, rep := range res.Itemsets {
			if v, ok := rep.Items.Feature(flow.FeatSrcIP); ok && flow.IP(v) == src {
				found = true
			}
		}
		if found {
			fmt.Println("-> flood source extracted")
		} else {
			fmt.Println("-> flood source MISSED (4 flows are below any useful flow-support threshold)")
		}
		fmt.Println()
		sys.Close()
	}
}
