package shardstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// maskRecord zeroes the fields of r outside cols: what a projected
// scan's Batch.Record reads back.
func maskRecord(r flow.Record, cols nffilter.ColumnSet) flow.Record {
	var m flow.Record
	if cols.Has(nffilter.ColStart) {
		m.Start = r.Start
	}
	if cols.Has(nffilter.ColDur) {
		m.Dur = r.Dur
	}
	if cols.Has(nffilter.ColSrcIP) {
		m.SrcIP = r.SrcIP
	}
	if cols.Has(nffilter.ColDstIP) {
		m.DstIP = r.DstIP
	}
	if cols.Has(nffilter.ColSrcPort) {
		m.SrcPort = r.SrcPort
	}
	if cols.Has(nffilter.ColDstPort) {
		m.DstPort = r.DstPort
	}
	if cols.Has(nffilter.ColProto) {
		m.Proto = r.Proto
	}
	if cols.Has(nffilter.ColFlags) {
		m.Flags = r.Flags
	}
	if cols.Has(nffilter.ColRouter) {
		m.Router = r.Router
	}
	if cols.Has(nffilter.ColAnno) {
		m.Anno = r.Anno
	}
	if cols.Has(nffilter.ColPackets) {
		m.Packets = r.Packets
	}
	if cols.Has(nffilter.ColBytes) {
		m.Bytes = r.Bytes
	}
	return m
}

// scanFilters are vectorised filters plus, last, one the per-row
// fallback evaluates (an unknown counter field reads 0, so ">= 0"
// holds). The last has no text form, so it cannot reach a peer.
func scanFilters(t *testing.T) []*nffilter.Filter {
	out := []*nffilter.Filter{nil}
	for _, expr := range []string{"proto udp", "dst port 53 or src port 443", "not proto tcp and packets > 100", "router 3"} {
		out = append(out, mustFilter(t, expr))
	}
	return append(out, nffilter.FromNode(&nffilter.And{Kids: []nffilter.Node{
		&nffilter.ProtoMatch{Proto: flow.ProtoTCP},
		&nffilter.CounterMatch{Field: nffilter.CounterField(99), Op: nffilter.CmpGe},
	}}))
}

// TestScanMatchesQuery pins Scan to Query on a 4-shard in-process store
// (both partitions) and on HTTP peers, at fan-out 1 and 4, over random
// spans, filters and projections: the rows of Scan's batches, read
// through Batch.Record, are Query's rows in Query's order with every
// field outside the projection zero. ErrStopIteration, cancellation and
// a dead peer's ShardError end Scan as they end Query.
func TestScanMatchesQuery(t *testing.T) {
	recs := genRecords(41, 6000, 4*testBinSec)
	_, timeSharded := buildPair(t, recs, 4, PartitionTime, nfstore.FormatV2)
	_, hashSharded := buildPair(t, recs, 4, PartitionHash, nfstore.FormatV2)
	_, servers, urls := buildPeers(t, recs, 4)
	remote, err := OpenRemote(context.Background(), urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx := t.Context()
	rng := rand.New(rand.NewSource(47))
	filters := scanFilters(t)
	for _, eng := range []struct {
		name string
		st   *ShardedStore
	}{{"time", timeSharded}, {"hash", hashSharded}, {"http", remote}} {
		n := len(filters)
		if eng.st == remote {
			n--
		}
		for trial := range 24 {
			f := filters[rng.Intn(n)]
			lo := uint32(rng.Intn(5 * testBinSec))
			iv := flow.Interval{Start: lo, End: lo + uint32(rng.Intn(3*testBinSec))}
			cols := nffilter.ColumnSet(rng.Intn(int(nffilter.AllColumns) + 1))
			eng.st.par.Store(int32([]int{1, 4}[trial%2]))
			want, err := eng.st.Records(ctx, iv, f)
			if err != nil {
				t.Fatal(err)
			}
			var got []flow.Record
			err = eng.st.Scan(ctx, iv, f, cols, func(b *nfstore.Batch) error {
				for i := range b.Len() {
					var r flow.Record
					b.Record(i, &r)
					got = append(got, r)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s trial %d filter %v iv %v cols %v: Scan %d rows, Query %d", eng.name, trial, f, iv, cols, len(got), len(want))
			}
			for i := range got {
				if m := maskRecord(want[i], cols); got[i] != m {
					t.Fatalf("%s trial %d cols %v: row %d\n got %+v\nwant %+v", eng.name, trial, cols, i, got[i], m)
				}
			}
		}

		all := flow.Interval{Start: 0, End: 4 * testBinSec}
		for _, k := range []int32{1, 4} {
			eng.st.par.Store(k)
			calls := 0
			err := eng.st.Scan(ctx, all, nil, nffilter.AllColumns, func(*nfstore.Batch) error {
				if calls++; calls == 2 {
					return nfstore.ErrStopIteration
				}
				return nil
			})
			if err != nil || calls != 2 {
				t.Fatalf("%s k=%d: ErrStopIteration gave %v after %d batches, want nil after 2", eng.name, k, err, calls)
			}
			cctx, cancel := context.WithCancel(ctx)
			calls = 0
			err = eng.st.Scan(cctx, all, nil, nffilter.AllColumns, func(*nfstore.Batch) error {
				calls++
				cancel()
				return nil
			})
			if !errors.Is(err, context.Canceled) || calls != 1 {
				t.Fatalf("%s k=%d: cancel gave %v after %d batches, want context.Canceled after 1", eng.name, k, err, calls)
			}
		}
		eng.st.par.Store(0)
	}

	// A dead peer fails Scan with the ShardError Query reports.
	servers[2].Close()
	iv := flow.Interval{Start: 0, End: 4 * testBinSec}
	qerr := remote.Query(ctx, iv, nil, func(*flow.Record) error { return nil })
	serr := remote.Scan(ctx, iv, nil, 0, func(*nfstore.Batch) error { return nil })
	var qse, sse *ShardError
	if !errors.As(qerr, &qse) || !errors.As(serr, &sse) || sse.Shard != urls[2] || qse.Shard != sse.Shard {
		t.Fatalf("dead peer: Query %v, Scan %v, want ShardErrors naming %s", qerr, serr, urls[2])
	}
}

// TestShardedAddAllRuns: routing a batch through each shard's AddAll, a
// run of same-shard records at a time, writes exactly the bytes that
// routing it record by record through Add does, and an invalid record
// stops it with an error naming its index in the caller's slice.
func TestShardedAddAllRuns(t *testing.T) {
	recs := genRecords(43, 12000, 3*testBinSec)
	for _, partition := range []string{PartitionTime, PartitionHash} {
		dirs := [2]string{filepath.Join(t.TempDir(), "all"), filepath.Join(t.TempDir(), "each")}
		for i, dir := range dirs {
			st, err := Create(dir, testBinSec, 4, partition, nfstore.FormatV2)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				err = st.AddAll(recs)
			} else {
				for j := range recs {
					if err = st.Add(&recs[j]); err != nil {
						break
					}
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}
		files := 0
		err := filepath.WalkDir(dirs[0], func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			rel, _ := filepath.Rel(dirs[0], path)
			a, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			b, err := os.ReadFile(filepath.Join(dirs[1], rel))
			if err != nil {
				return err
			}
			if !bytes.Equal(a, b) {
				return fmt.Errorf("%s differs between AddAll and per-record Add", rel)
			}
			files++
			return nil
		})
		if err != nil || files == 0 {
			t.Fatalf("%s: %v (%d files compared)", partition, err, files)
		}

		st, err := Create(filepath.Join(t.TempDir(), "bad"), testBinSec, 4, partition, nfstore.FormatV2)
		if err != nil {
			t.Fatal(err)
		}
		bad := append([]flow.Record(nil), recs[:5000]...)
		bad[4321].Packets = 0
		err = st.AddAll(bad)
		if ferr := st.Flush(); ferr != nil {
			t.Fatal(ferr)
		}
		var re *nfstore.RecordError
		if !errors.As(err, &re) || re.Index != 4321 || !errors.Is(err, flow.ErrZeroPackets) || !strings.HasPrefix(err.Error(), "record 4321: ") {
			t.Fatalf("%s: AddAll = %v, want record 4321's error", partition, err)
		}
		if n, _, _, err := st.Count(t.Context(), flow.Interval{Start: 0, End: 3 * testBinSec}, nil); err != nil || n != 4321 {
			t.Fatalf("%s: %d records stored before the bad one (%v), want 4321", partition, n, err)
		}
		st.Close()
	}
}
