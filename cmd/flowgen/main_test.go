package main

import (
	"context"
	"testing"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/nfstore"
	"repro/internal/shardstore"
	"repro/internal/stats"
)

func TestScenarioPlacements(t *testing.T) {
	cases := []struct {
		name string
		want int
	}{
		{"quiet", 0},
		{"portscan", 1},
		{"ddos", 1},
		{"udpflood", 1},
		{"table1", 4},
	}
	for _, c := range cases {
		got, err := scenarioPlacements(c.name, 3, 1)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if len(got) != c.want {
			t.Errorf("%s: %d placements, want %d", c.name, len(got), c.want)
		}
		for _, p := range got {
			if p.Bin != 3 {
				t.Errorf("%s: placement bin %d, want 3", c.name, p.Bin)
			}
			if p.Anomaly == nil {
				t.Errorf("%s: nil anomaly", c.name)
			}
		}
	}
	if _, err := scenarioPlacements("nonsense", 0, 1); err == nil {
		t.Error("unknown scenario must error")
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir() + "/store"
	err := run(dir, "portscan", 4, 300, 2, 100, 500, 100, 1, 1, 1_300_000_200, 2, false, nfstore.DefaultSegmentFormat, 0, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Running again into the same store must fail (Create refuses).
	if err := run(dir, "quiet", 2, 300, 1, 10, 10, 10, 1, 1, 0, 0, false, nfstore.DefaultSegmentFormat, 0, "", nil); err == nil {
		t.Fatal("second run into the same directory must fail")
	}
}

func TestRunSharded(t *testing.T) {
	dir := t.TempDir() + "/store"
	err := run(dir, "portscan", 4, 300, 2, 100, 500, 100, 1, 1, 1_300_000_200, 2, false, nfstore.DefaultSegmentFormat, 3, "hash", nil)
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := shardstore.ShardDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 3 {
		t.Fatalf("ShardDirs = %v, want 3 shards", dirs)
	}
	sh, err := shardstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	flows, _, _, err := sh.Count(context.Background(), flow.Interval{Start: 0, End: ^uint32(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows == 0 {
		t.Fatal("sharded store holds no flows")
	}
}

func TestRunWithTrace(t *testing.T) {
	recs := gen.SynthTraceRecords(stats.NewRNG(7), 4, 300, 50)
	dir := t.TempDir() + "/store"
	err := run(dir, "ddos", 4, 300, 2, 100, 500, 100, 1, 1, 1_300_000_200, 2, false,
		nfstore.DefaultSegmentFormat, 0, "", gen.EncodeTraceCSV(recs))
	if err != nil {
		t.Fatal(err)
	}
	store, err := nfstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	// The replayed background plus the injected flood must both be
	// present: more stored flows than the trace alone.
	flows, _, _, err := store.Count(context.Background(), flow.Interval{Start: 0, End: ^uint32(0)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows <= uint64(len(recs)) {
		t.Fatalf("stored %d flows, want replayed background (%d) plus injected anomaly", flows, len(recs))
	}

	// Garbage trace bytes surface the reader's error.
	if err := run(t.TempDir()+"/bad", "quiet", 4, 300, 1, 10, 10, 10, 1, 1, 1_300_000_200, 2,
		false, nfstore.DefaultSegmentFormat, 0, "", []byte("not a trace")); err == nil {
		t.Fatal("bogus trace bytes must fail the run")
	}
}
