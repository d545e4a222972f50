// Command nfmigrate rewrites a flow store's segments between on-disk
// formats: v1 fixed rows and v2 compressed column blocks. Both formats
// read transparently in a mixed store, so migration is never required —
// it converts archives in place to pick up v2's scan speed (or back to v1
// for tooling that parses the fixed rows directly).
//
// Each segment is rewritten atomically (temp file + rename) with a fresh
// zone-map sidecar; an interrupted run leaves a valid mixed-format store
// and a rerun picks up where it stopped. Rewrites fan out over a bounded
// worker pool (-j). The store meta's default write format is updated
// last, so segments created after the migration match. A sharded store
// (shardstore manifest) migrates shard by shard with the same pool.
//
// Usage:
//
//	nfmigrate -store /tmp/flows            # migrate to v2 (the default)
//	nfmigrate -store /tmp/flows -to 1      # back to fixed rows
//	nfmigrate -store /tmp/flows -j 8       # 8 concurrent segment rewrites
//	nfmigrate -store /tmp/flows -dry-run   # just count formats
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	"repro/internal/cliflag"
	"repro/internal/nfstore"
	"repro/internal/shardstore"
)

func main() {
	var (
		storeDir = flag.String("store", "", "flow store directory (required; single or sharded)")
		target   = flag.Int("to", int(nfstore.FormatV2), "target segment format: 1 = fixed rows, 2 = column blocks")
		workers  = flag.Int("j", 0, "concurrent segment rewrites (0 = min(GOMAXPROCS, 8), 1 = serial)")
		dryRun   = flag.Bool("dry-run", false, "report per-format segment counts without rewriting anything")
	)
	flag.Usage = func() {
		fmt.Fprint(flag.CommandLine.Output(), `usage: nfmigrate -store DIR [-to N] [-j N] [-dry-run]

Rewrite a flow store's segments between the fixed-row (v1) and columnar
(v2) on-disk formats. Migration is optional — queries read both formats,
mixed stores included — and atomic per segment, so an interrupted run
leaves a valid store and a rerun resumes. Segment rewrites run -j at a
time. A sharded store directory (shards.json manifest) migrates every
shard.

Flags:
`)
		flag.PrintDefaults()
	}
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "nfmigrate: -store is required")
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*storeDir, cliflag.Narrow[uint16]("nfmigrate", "to", *target), *workers, *dryRun); err != nil {
		fmt.Fprintln(os.Stderr, "nfmigrate:", err)
		os.Exit(1)
	}
}

func run(dir string, target uint16, workers int, dryRun bool) error {
	// A sharded store is N child stores: migrate each with the same
	// worker pool. The shard label keeps the per-store reports readable.
	if shardstore.IsShardedDir(dir) {
		shardDirs, err := shardstore.ShardDirs(dir)
		if err != nil {
			return err
		}
		for i, sub := range shardDirs {
			fmt.Printf("shard %d (%s)\n", i, filepath.Base(sub))
			if err := runOne(sub, target, workers, dryRun); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		return nil
	}
	return runOne(dir, target, workers, dryRun)
}

func runOne(dir string, target uint16, workers int, dryRun bool) error {
	store, err := nfstore.Open(dir)
	if err != nil {
		return err
	}
	defer store.Close()

	printFormats := func(label string) error {
		counts, err := store.SegmentFormats()
		if err != nil {
			return err
		}
		versions := make([]int, 0, len(counts))
		for v := range counts {
			versions = append(versions, int(v))
		}
		sort.Ints(versions)
		fmt.Printf("%s:", label)
		if len(versions) == 0 {
			fmt.Print(" no segments")
		}
		for _, v := range versions {
			fmt.Printf(" v%d=%d", v, counts[uint16(v)])
		}
		fmt.Println()
		return nil
	}
	if err := printFormats("segments"); err != nil {
		return err
	}
	if dryRun {
		return nil
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	migrated, err := store.MigrateWorkers(ctx, target, workers)
	if err != nil {
		return fmt.Errorf("after %d segment(s): %w", migrated, err)
	}
	fmt.Printf("rewrote %d segment(s) to v%d\n", migrated, target)
	if err := updateMetaFormat(dir, target); err != nil {
		return err
	}
	return printFormats("now")
}

// updateMetaFormat persists the target as the store's default write
// format, so segments created after the migration match the migrated
// ones.
func updateMetaFormat(dir string, target uint16) error {
	path := filepath.Join(dir, "store.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	meta["segment_format"] = target
	out, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		return fmt.Errorf("meta: %w", err)
	}
	return nil
}
