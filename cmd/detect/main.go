// Command detect runs an anomaly detector over a flow store and files the
// resulting alarms into the alarm database — the left half of the paper's
// Figure 1 architecture.
//
// Usage:
//
//	detect -store /tmp/flows -detector netreflex -alarmdb /tmp/alarms.json
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	rootcause "repro"
	"repro/internal/cliflag"
	"repro/internal/flow"
)

func main() {
	var (
		storeDir = flag.String("store", "", "flow store directory (required)")
		detName  = flag.String("detector", "netreflex", "registered detector name (see rootcause.DetectorNames)")
		dbPath   = flag.String("alarmdb", "", "alarm database JSON path (default: <store>/alarms.json)")
		from     = flag.Uint("from", 0, "span start, unix seconds (0 = store start)")
		to       = flag.Uint("to", 0, "span end, unix seconds (0 = store end)")
		corr     = flag.Bool("correlate", false,
			"after detection, dedup + correlate the stored alarms into incidents and print them")
		follow = flag.String("follow", "",
			"tail a live rcad's incident feed (SSE) at this base URL instead of running a detector")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: detect -store DIR [flags]

Run an anomaly detector over a flow store and file the resulting alarms
into the alarm database — the left half of the paper's Figure 1. The
filed alarm IDs feed extract / rcad.

Registered detectors: netreflex (default), histogram, pca.

With -correlate, the stored alarms of the span are additionally
deduplicated and clustered into incidents (docs/incidents.md) and each
incident is printed with its lead-lag chain; extract them with
extract -incident ID.

With -follow URL no detector runs at all: detect tails the live
incident feed (SSE) of the rcad -live at URL, printing each incident
the watcher opens and each finished auto-extraction until the server
drains or ^C.

Example:
  detect -store /tmp/flows -detector netreflex -correlate
  detect -follow http://localhost:8080

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *follow != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := followLive(ctx, *follow); err != nil {
			fmt.Fprintln(os.Stderr, "detect:", err)
			os.Exit(1)
		}
		return
	}
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "detect: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	if *dbPath == "" {
		*dbPath = *storeDir + "/alarms.json"
	}
	start := cliflag.Narrow[uint32]("detect", "from", *from)
	end := cliflag.Narrow[uint32]("detect", "to", *to)
	if err := run(*storeDir, *detName, *dbPath, start, end, *corr); err != nil {
		fmt.Fprintln(os.Stderr, "detect:", err)
		os.Exit(1)
	}
}

func run(storeDir, detName, dbPath string, from, to uint32, correlate bool) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sys, err := rootcause.Open(rootcause.Config{StoreDir: storeDir, AlarmDBPath: dbPath})
	if err != nil {
		return err
	}
	defer sys.Close()

	span := flow.Interval{Start: from, End: to}
	if span.Start == 0 || span.End == 0 {
		full, ok, err := sys.Store().Span()
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("store %s is empty", storeDir)
		}
		if span.Start == 0 {
			span.Start = full.Start
		}
		if span.End == 0 {
			span.End = full.End
		}
	}

	ids, err := sys.Detect(ctx, detName, span)
	if err != nil {
		return err
	}
	fmt.Printf("%s filed %d alarm(s) into %s\n", detName, len(ids), dbPath)
	for _, id := range ids {
		entry, err := sys.Alarm(id)
		if err != nil {
			return err
		}
		fmt.Printf("  alarm %s: %s\n", id, entry.Alarm.String())
	}
	if !correlate {
		return nil
	}

	sum, err := sys.Correlate(ctx, span)
	if err != nil {
		return err
	}
	fmt.Printf("correlated %d alarm(s) (%d after dedup) into %d incident(s)\n",
		sum.AlarmsConsidered, sum.AlarmsKept, len(sum.IncidentIDs))
	for _, id := range sum.IncidentIDs {
		entry, err := sys.Incident(id)
		if err != nil {
			return err
		}
		inc := entry.Incident
		fmt.Printf("  incident %s [%s]: %d alarm(s), %d suppressed, kinds %v\n",
			inc.ID, inc.Interval, len(inc.AlarmIDs), inc.Suppressed, inc.Kinds)
		for _, link := range inc.Chain {
			fmt.Printf("    chain: %s\n", link.String())
		}
	}
	return nil
}
