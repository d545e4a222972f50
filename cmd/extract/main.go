// Command extract runs the paper's extended-Apriori anomaly extraction
// for one stored alarm (or an ad-hoc interval) and prints the ranked
// itemsets in the shape of the paper's Table 1. This is the core screen
// of the paper's operator GUI, including its tunable parameters.
//
// Usage:
//
//	extract -store /tmp/flows -alarmdb /tmp/alarms.json -id 3
//	extract -store /tmp/flows -incident i1
//	extract -store /tmp/flows -from 1300000800 -to 1300001100 \
//	        -meta "srcIP=10.191.64.165,dstPort=80"
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	rootcause "repro"
	"repro/internal/cliflag"
	"repro/internal/detector"
	"repro/internal/flow"
)

func main() {
	var (
		storeDir  = flag.String("store", "", "flow store directory (required)")
		dbPath    = flag.String("alarmdb", "", "alarm database JSON path")
		alarmID   = flag.String("id", "", "stored alarm ID to extract")
		incID     = flag.String("incident", "", "stored incident ID to extract (one merged run over its members)")
		from      = flag.Uint("from", 0, "ad-hoc alarm interval start (unix seconds)")
		to        = flag.Uint("to", 0, "ad-hoc alarm interval end (unix seconds)")
		meta      = flag.String("meta", "", "ad-hoc meta-data: comma-separated feature=value pairs")
		minerName = flag.String("miner", "", "frequent-itemset miner (see rootcause.MinerNames; default apriori)")
		ranking   = flag.String("ranking", "", "itemset ranking mode: support (default), lift or weighted")
		minSets   = flag.Int("min-itemsets", 0, "override: self-tuning target minimum itemsets")
		maxSets   = flag.Int("max-itemsets", 0, "override: maximum reported itemsets")
		floor     = flag.Uint64("floor", 0, "override: absolute support floor")
		noPre     = flag.Bool("no-prefilter", false, "disable the meta-data pre-filter")
		flowOnly  = flag.Bool("flow-only", false, "classic Apriori: flow support only (no packet pass)")
		showFlows = flag.Int("show-flows", 0, "print up to N raw flows of the top itemset")
		async     = flag.Bool("async", false, "run through the job manager with live progress on stderr")
		wait      = flag.Bool("wait", true, "with -async: wait for the job (false: submit, print status, exit)")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: extract -store DIR (-id ALARM | -incident ID | -from UNIX -to UNIX [-meta ITEMS]) [flags]

Run the paper's extended-Apriori anomaly extraction for one stored alarm
(or an ad-hoc interval) and print the ranked itemsets in the shape of
the paper's Table 1.

-incident extracts a correlated incident (see detect -correlate and
docs/incidents.md) instead: its member alarms merge into ONE mining run
over the incident's full interval, and every member is marked analyzed.

Ad-hoc meta-data (-meta) is a comma-separated feature=value list over
srcIP, dstIP, srcPort, dstPort, proto.

-miner selects the frequent-itemset miner: apriori (default), fpgrowth
or fda, plus any externally registered name. apriori and fpgrowth
produce identical itemsets and differ only in speed; fda additionally
prunes statistically insignificant items and low-lift itemsets (a
subset of the canonical output — see docs/mining.md).

-ranking selects how the final list is scored: support (max flow/packet
share, the default), lift (observed share over the independence
expectation) or weighted (share x log2(1+lift), inverse-support
weighting that boosts specific conjunctions).

-async routes the extraction through the system's job manager (the
same path rcad's /api/v1/jobs serves) and prints sampled progress —
phase, tuning round, streamed flows — to stderr while mining runs;
-wait=false just submits, prints the job status and exits.

Examples:
  extract -store /tmp/flows -alarmdb /tmp/flows/alarms.json -id 1
  extract -store /tmp/flows -id 1 -miner fpgrowth
  extract -store /tmp/flows -id 1 -miner fda -ranking weighted
  extract -store /tmp/flows -id 1 -async
  extract -store /tmp/flows -incident i1
  extract -store /tmp/flows -from 1300000800 -to 1300001100 \
          -meta "srcIP=10.191.64.165,dstPort=80"

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "extract: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	opts := rootcause.DefaultExtractionOptions()
	if *minerName != "" {
		opts.Miner = *minerName
	}
	if *ranking != "" {
		opts.Ranking = *ranking
	}
	if *minSets > 0 {
		opts.MinItemsets = *minSets
	}
	if *maxSets > 0 {
		opts.MaxItemsets = *maxSets
	}
	if *floor > 0 {
		opts.SupportFloor = *floor
	}
	opts.NoPrefilter = *noPre
	opts.FlowOnly = *flowOnly
	start := cliflag.Narrow[uint32]("extract", "from", *from)
	end := cliflag.Narrow[uint32]("extract", "to", *to)
	if err := run(*storeDir, *dbPath, *alarmID, *incID, start, end, *meta, opts, *showFlows, *async, *wait); err != nil {
		fmt.Fprintln(os.Stderr, "extract:", err)
		os.Exit(1)
	}
}

func run(storeDir, dbPath, alarmID, incidentID string, from, to uint32, metaExpr string,
	opts rootcause.ExtractionOptions, showFlows int, async, wait bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sys, err := rootcause.Open(rootcause.Config{StoreDir: storeDir, AlarmDBPath: dbPath})
	if err != nil {
		return err
	}
	defer sys.Close()
	withOpts := rootcause.WithExtractionOptions(opts)

	var res *rootcause.Result
	switch {
	case incidentID != "" && async:
		res, err = runJob(ctx, sys, rootcause.JobRequest{IncidentID: incidentID}, withOpts, wait)
		if err != nil || res == nil {
			return err
		}
	case incidentID != "":
		res, err = sys.ExtractIncident(ctx, incidentID, withOpts)
	case alarmID != "" && async:
		res, err = runJob(ctx, sys, rootcause.JobRequest{AlarmID: alarmID}, withOpts, wait)
		if err != nil || res == nil {
			return err
		}
	case alarmID != "":
		res, err = sys.Extract(ctx, alarmID, withOpts)
	case from != 0 && to != 0:
		metaItems, merr := parseMeta(metaExpr)
		if merr != nil {
			return merr
		}
		alarm := rootcause.Alarm{
			Detector: "cli",
			Interval: flow.Interval{Start: from, End: to},
			Meta:     metaItems,
		}
		if async {
			// An ad-hoc alarm is filed first — jobs run against stored
			// alarms so the result stays fetchable by ID.
			res, err = runJob(ctx, sys, rootcause.JobRequest{AlarmID: sys.FileAlarm(alarm)}, withOpts, wait)
			if err != nil || res == nil {
				return err
			}
		} else {
			res, err = sys.ExtractAlarm(ctx, &alarm, withOpts)
		}
	default:
		return fmt.Errorf("need -id, -incident, or -from and -to")
	}
	if err != nil {
		return err
	}

	fmt.Print(res.Table().String())
	fmt.Printf("\ncandidates: %d flows / %d packets (prefiltered=%v)\n",
		res.CandidateFlows, res.CandidatePackets, res.Prefiltered)
	for _, tr := range res.Tuning {
		fmt.Printf("tuning[%s]: min support %d -> %d in %d round(s), %d itemsets\n",
			tr.Dimension, tr.InitialMin, tr.FinalMin, tr.Rounds, tr.ItemsetsSeen)
	}
	if res.BaselineDropped > 0 {
		fmt.Printf("baseline filter dropped %d itemset(s)\n", res.BaselineDropped)
	}

	if showFlows > 0 && len(res.Itemsets) > 0 {
		flows, err := sys.ItemsetFlows(ctx, res.Alarm.Interval, &res.Itemsets[0])
		if err != nil {
			return err
		}
		fmt.Printf("\nraw flows of top itemset (%d total, showing %d):\n",
			len(flows), min(showFlows, len(flows)))
		for i := 0; i < len(flows) && i < showFlows; i++ {
			fmt.Println(" ", flows[i].String())
		}
	}
	return nil
}

// runJob submits one extraction (alarm or incident) under the extraction
// options opt to the in-process job manager and, when wait is set,
// follows its progress to completion. With wait=false it prints the
// submitted job's status and returns a nil result (the process exit
// cancels the job — submission without waiting is for demonstrating the
// API surface; a long-lived rcad serves it for real).
func runJob(ctx context.Context, sys *rootcause.System, req rootcause.JobRequest, opt rootcause.Option, wait bool) (*rootcause.Result, error) {
	jobID, err := sys.Submit(req, opt,
		rootcause.WithProgress(func(p rootcause.ExtractionProgress) {
			fmt.Fprintf(os.Stderr, "progress: phase=%s", p.Phase)
			if p.TuningRound > 0 {
				fmt.Fprintf(os.Stderr, " round=%d", p.TuningRound)
			}
			if p.CandidateFlows > 0 {
				fmt.Fprintf(os.Stderr, " flows=%d", p.CandidateFlows)
			}
			if p.Itemsets > 0 {
				fmt.Fprintf(os.Stderr, " itemsets=%d", p.Itemsets)
			}
			fmt.Fprintln(os.Stderr)
		}))
	if err != nil {
		return nil, err
	}
	st, err := sys.Job(jobID)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "job %s: %s (kind %s)\n", st.ID, st.State, st.Kind)
	if !wait {
		return nil, nil
	}
	jr, err := sys.Wait(ctx, jobID)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "job %s: %s\n", jr.Status.ID, jr.Status.State)
	return jr.Result, nil
}

// parseMeta parses "srcIP=10.0.0.1,dstPort=80" into meta items.
func parseMeta(expr string) ([]detector.MetaItem, error) {
	if expr == "" {
		return nil, nil
	}
	var items []detector.MetaItem
	for _, part := range strings.Split(expr, ",") {
		part = strings.TrimSpace(part)
		eq := strings.IndexByte(part, '=')
		if eq < 0 {
			return nil, fmt.Errorf("meta item %q is not feature=value", part)
		}
		feat, err := flow.ParseFeature(part[:eq])
		if err != nil {
			return nil, err
		}
		valStr := part[eq+1:]
		var value uint32
		switch feat {
		case flow.FeatSrcIP, flow.FeatDstIP:
			ip, err := flow.ParseIP(valStr)
			if err != nil {
				return nil, err
			}
			value = uint32(ip)
		case flow.FeatProto:
			p, err := flow.ParseProtocol(valStr)
			if err != nil {
				return nil, err
			}
			value = uint32(p)
		default:
			var port uint16
			if _, err := fmt.Sscanf(valStr, "%d", &port); err != nil {
				return nil, fmt.Errorf("bad port %q: %v", valStr, err)
			}
			value = uint32(port)
		}
		items = append(items, detector.MetaItem{Feature: feat, Value: value})
	}
	return items, nil
}
