package shardstore

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// serveShard mounts one store behind a test HTTP server the way a peer
// rcad node does, returning the peer URL.
func serveShard(t *testing.T, st *nfstore.Store) (*httptest.Server, string) {
	t.Helper()
	mux := http.NewServeMux()
	mux.Handle("/api/v1/shard/", http.StripPrefix("/api/v1/shard", Handler(st)))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, srv.URL
}

// buildPeers creates n local stores filled with recs routed by router
// hash (mirroring PartitionHash) and serves each over HTTP.
func buildPeers(t *testing.T, recs []flow.Record, n int) (locals []*nfstore.Store, servers []*httptest.Server, urls []string) {
	t.Helper()
	router, err := Create(filepath.Join(t.TempDir(), "route"), testBinSec, n, PartitionHash, nfstore.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { router.Close() })
	if err := router.AddAll(recs); err != nil {
		t.Fatal(err)
	}
	if err := router.Flush(); err != nil {
		t.Fatal(err)
	}
	for _, sh := range router.shards {
		st := sh.(*nfstore.Store)
		srv, url := serveShard(t, st)
		locals = append(locals, st)
		servers = append(servers, srv)
		urls = append(urls, url)
	}
	return locals, servers, urls
}

// TestRemoteRoundTrip drives the full read surface through the HTTP
// protocol, both scatter-gathered over two peers and on one bare
// *RemoteShard, and checks each agrees with the records written.
func TestRemoteRoundTrip(t *testing.T) {
	recs := genRecords(17, 1500, 3*testBinSec)
	_, _, urls := buildPeers(t, recs, 2)
	remote, err := OpenRemote(context.Background(), urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	_, _, one := buildPeers(t, recs, 1)
	bare, err := NewRemoteShard(context.Background(), one[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		nfstore.Engine
	}{{"sharded", remote}, {"bare", bare}} {
		t.Run(eng.name, func(t *testing.T) { checkRoundTrip(t, eng.Engine, recs) })
	}
}

// checkRoundTrip checks remote's read surface against recs, all of
// which it holds.
func checkRoundTrip(t *testing.T, remote nfstore.Engine, recs []flow.Record) {
	ctx := context.Background()
	iv := flow.Interval{Start: 0, End: 3 * testBinSec}
	filter := mustFilter(t, "proto udp and dst port 53")

	flows, packets, bytes, err := remote.Count(ctx, iv, filter)
	if err != nil {
		t.Fatal(err)
	}
	var wantFlows, wantPackets, wantBytes uint64
	for i := range recs {
		r := &recs[i]
		if r.Proto == flow.ProtoUDP && r.DstPort == 53 {
			wantFlows++
			wantPackets += r.Packets
			wantBytes += r.Bytes
		}
	}
	if flows != wantFlows || packets != wantPackets || bytes != wantBytes {
		t.Fatalf("remote count (%d,%d,%d) != local (%d,%d,%d)",
			flows, packets, bytes, wantFlows, wantPackets, wantBytes)
	}

	var streamed []flow.Record
	if err := remote.Query(ctx, iv, filter, func(r *flow.Record) error {
		streamed = append(streamed, *r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if uint64(len(streamed)) != wantFlows {
		t.Fatalf("remote query streamed %d records, want %d", len(streamed), wantFlows)
	}

	sums, err := remote.Summaries(ctx, iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) == 0 {
		t.Fatal("remote summaries empty")
	}
	var sumFlows uint64
	for _, s := range sums {
		sumFlows += s.Flows
	}
	if sumFlows != uint64(len(recs)) {
		t.Fatalf("summaries cover %d flows, want %d", sumFlows, len(recs))
	}

	top, err := remote.TopN(ctx, iv, nil, flow.FeatDstPort, nfstore.ByFlows, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("topn returned %d rows", len(top))
	}

	bins, err := remote.Bins()
	if err != nil {
		t.Fatal(err)
	}
	if len(bins) == 0 {
		t.Fatal("remote bins empty")
	}
	span, ok, err := remote.Span()
	if err != nil || !ok {
		t.Fatalf("remote span: %v ok=%v", err, ok)
	}
	if span.Start != bins[0] {
		t.Fatalf("span %v does not start at first bin %d", span, bins[0])
	}

	formats, err := remote.SegmentFormats()
	if err != nil {
		t.Fatal(err)
	}
	if formats[nfstore.FormatV2] == 0 {
		t.Fatalf("segment formats = %v", formats)
	}

	remote.ResetStats()
	if _, _, _, err := remote.Count(ctx, iv, nil); err != nil {
		t.Fatal(err)
	}
	if st := remote.Stats(); st.SegmentsConsidered == 0 {
		t.Fatalf("remote stats after count: %+v", st)
	}
}

// TestRemoteQueryParity compares the HTTP-streamed query byte for byte
// with the in-process sharded read over the same shard directories, and
// each bare *RemoteShard's whole read surface with the store it serves.
func TestRemoteQueryParity(t *testing.T) {
	recs := genRecords(23, 2000, 3*testBinSec)
	locals, _, urls := buildPeers(t, recs, 3)
	remote, err := OpenRemote(context.Background(), urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	m := Manifest{Version: manifestVersion, Partition: PartitionHash, Shards: 3, BinSeconds: testBinSec}
	shards := make([]nfstore.Engine, len(locals))
	names := make([]string, len(locals))
	bares := make([]*RemoteShard, len(locals))
	for i, st := range locals {
		shards[i], names[i] = st, shardDirName(i)
		if bares[i], err = NewRemoteShard(context.Background(), urls[i], 0); err != nil {
			t.Fatal(err)
		}
	}
	inproc, err := newFromShards(m, names, shards)
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	iv := flow.Interval{Start: 100, End: 2*testBinSec + 50}
	for _, expr := range []string{"", "proto tcp", "dst port 443 and packets > 100"} {
		filter := mustFilter(t, expr)
		want, err := inproc.Records(ctx, iv, filter)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Records(ctx, iv, filter)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("filter %q: remote stream (%d records) != in-process (%d records)",
				expr, len(got), len(want))
		}
		for i, bare := range bares {
			checkSameReads(t, fmt.Sprintf("filter %q, peer %d", expr, i), bare, locals[i], iv, filter)
		}
	}
}

// checkSameReads fails unless got answers every read exactly as want:
// Query bytes, Count, Summaries, TopN, Bins, Span and SegmentFormats.
func checkSameReads(t *testing.T, label string, got, want nfstore.Engine, iv flow.Interval, filter *nffilter.Filter) {
	t.Helper()
	ctx := context.Background()
	reads := func(eng nfstore.Engine) []any {
		recs, rerr := eng.Records(ctx, iv, filter)
		f, p, b, cerr := eng.Count(ctx, iv, filter)
		sums, serr := eng.Summaries(ctx, iv, filter)
		top, terr := eng.TopN(ctx, iv, filter, flow.FeatDstPort, nfstore.ByPackets, 3)
		bins, berr := eng.Bins()
		span, ok, perr := eng.Span()
		formats, ferr := eng.SegmentFormats()
		for _, err := range []error{rerr, cerr, serr, terr, berr, perr, ferr} {
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		return []any{recs, [3]uint64{f, p, b}, sums, top, bins, span, ok, formats}
	}
	g, w := reads(got), reads(want)
	for i, what := range []string{"Query", "Count", "Summaries", "TopN", "Bins", "Span", "Span ok", "SegmentFormats"} {
		if !reflect.DeepEqual(g[i], w[i]) {
			t.Fatalf("%s: %s = %v, want %v", label, what, g[i], w[i])
		}
	}
}

// TestRemoteEarlyStop stops a streaming query from the callback: the
// client must end cleanly without draining the peer's whole stream.
func TestRemoteEarlyStop(t *testing.T) {
	recs := genRecords(29, 3000, 2*testBinSec)
	_, _, urls := buildPeers(t, recs, 2)
	remote, err := OpenRemote(context.Background(), urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	seen := 0
	err = remote.Query(context.Background(), flow.Interval{Start: 0, End: 2 * testBinSec}, nil,
		func(*flow.Record) error {
			seen++
			if seen == 5 {
				return nfstore.ErrStopIteration
			}
			return nil
		})
	if err != nil {
		t.Fatalf("early stop: %v", err)
	}
	if seen != 5 {
		t.Fatalf("callback ran %d times, want 5", seen)
	}
}

// TestRemotePartialFailure kills one peer and verifies every read fails
// loudly with a ShardError naming it (a refused connection fails every
// retry at once) — and that degraded mode instead
// returns the survivors' partial result.
func TestRemotePartialFailure(t *testing.T) {
	recs := genRecords(31, 1000, 2*testBinSec)
	locals, servers, urls := buildPeers(t, recs, 2)
	remote, err := OpenRemote(context.Background(), urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	ctx := context.Background()
	iv := flow.Interval{Start: 0, End: 2 * testBinSec}

	servers[1].Close() // the peer dies after the cluster formed

	_, _, _, err = remote.Count(ctx, iv, nil)
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("count after peer death: %v (want ShardError)", err)
	}
	if se.Shard != urls[1] {
		t.Fatalf("ShardError names %q, want dead peer %q", se.Shard, urls[1])
	}

	err = remote.Query(ctx, iv, nil, func(*flow.Record) error { return nil })
	if !errors.As(err, &se) {
		t.Fatalf("query after peer death: %v (want ShardError)", err)
	}
	if se.Shard != urls[1] {
		t.Fatalf("query ShardError names %q, want %q", se.Shard, urls[1])
	}

	// Degraded: explicit opt-in to partial results from the survivor.
	remote.SetDegraded(true)
	flows, _, _, err := remote.Count(ctx, iv, nil)
	if err != nil {
		t.Fatalf("degraded count: %v", err)
	}
	wf, _, _, err := locals[0].Count(ctx, iv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if flows != wf {
		t.Fatalf("degraded count = %d, want survivor's %d", flows, wf)
	}
	got := 0
	if err := remote.Query(ctx, iv, nil, func(*flow.Record) error { got++; return nil }); err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if uint64(got) != wf {
		t.Fatalf("degraded query streamed %d records, want survivor's %d", got, wf)
	}

	// All shards dead must still fail, even degraded.
	servers[0].Close()
	if _, _, _, err := remote.Count(ctx, iv, nil); err == nil {
		t.Fatal("degraded count with every shard dead returned nil error")
	}
}

// TestRemoteErrorFrame verifies the client surfaces a peer's mid-stream
// error frame as an error, and that a stream cut without a terminator is
// a loud truncation error, never silent data loss.
func TestRemoteErrorFrame(t *testing.T) {
	meta := func(w http.ResponseWriter) {
		json.NewEncoder(w).Encode(map[string]any{"bin_seconds": testBinSec, "write_format": 2})
	}
	mkPeer := func(query http.HandlerFunc) string {
		mux := http.NewServeMux()
		mux.HandleFunc("GET /api/v1/shard/meta", func(w http.ResponseWriter, _ *http.Request) { meta(w) })
		mux.HandleFunc("GET /api/v1/shard/query", query)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv.URL
	}

	// One good frame, then an error frame.
	errPeer := mkPeer(func(w http.ResponseWriter, _ *http.Request) {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 1)
		w.Write(hdr[:])
		w.Write(make([]byte, nfstore.RecordSize))
		binary.LittleEndian.PutUint32(hdr[:], 0xFFFFFFFF)
		w.Write(hdr[:])
		msg := []byte("segment exploded")
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(msg)))
		w.Write(hdr[:])
		w.Write(msg)
	})
	r, err := NewRemoteShard(context.Background(), errPeer, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = r.Query(context.Background(), flow.Interval{Start: 0, End: testBinSec}, nil,
		func(*flow.Record) error { n++; return nil })
	if err == nil || !strings.Contains(err.Error(), "segment exploded") {
		t.Fatalf("error frame surfaced as %v", err)
	}
	if n != 1 {
		t.Fatalf("callback saw %d records before the error frame, want 1", n)
	}

	// A stream that just ends (no terminator) is truncation.
	truncPeer := mkPeer(func(w http.ResponseWriter, _ *http.Request) {
		var hdr [4]byte
		binary.LittleEndian.PutUint32(hdr[:], 2)
		w.Write(hdr[:])
		w.Write(make([]byte, 2*nfstore.RecordSize))
		// no terminator frame
	})
	r2, err := NewRemoteShard(context.Background(), truncPeer, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = r2.Query(context.Background(), flow.Interval{Start: 0, End: testBinSec}, nil,
		func(*flow.Record) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated stream surfaced as %v", err)
	}
}

// TestRemoteRejectsWrites pins the read-only contract of a peer-backed
// store.
func TestRemoteRejectsWrites(t *testing.T) {
	recs := genRecords(37, 100, testBinSec)
	_, _, urls := buildPeers(t, recs, 2)
	remote, err := OpenRemote(context.Background(), urls, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	r := recs[0]
	if err := remote.Add(&r); err == nil {
		t.Fatal("Add on a remote store must fail")
	}
	if err := remote.SetSegmentFormat(nfstore.FormatV1); err == nil {
		t.Fatal("SetSegmentFormat on a remote store must fail")
	}
	if err := remote.Seal(r.Start); err == nil {
		t.Fatal("Seal on a remote store must fail")
	}
	bare, err := NewRemoteShard(context.Background(), urls[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := bare.Add(&r); err == nil {
		t.Fatal("Add on a remote shard must fail")
	}
	if err := bare.AddAll(recs); err == nil {
		t.Fatal("AddAll on a remote shard must fail")
	}
	if err := bare.Flush(); err != nil {
		t.Fatalf("Flush on a remote shard is a no-op, got %v", err)
	}
}

// TestOpenRemoteValidation pins constructor failure modes: no peers,
// a dead peer (refused, so its retries fail at once), inconsistent bin
// widths.
func TestOpenRemoteValidation(t *testing.T) {
	if _, err := OpenRemote(context.Background(), nil, 0); err == nil {
		t.Fatal("no peers must fail")
	}
	if _, err := OpenRemote(context.Background(), []string{"127.0.0.1:1"},
		200*time.Millisecond); err == nil {
		t.Fatal("dead peer must fail")
	}

	recs := genRecords(41, 100, testBinSec)
	_, _, urls := buildPeers(t, recs, 1)
	other, err := nfstore.CreateFormat(filepath.Join(t.TempDir(), "odd"), 600, nfstore.FormatV2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Close() })
	if err := other.Add(&recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := other.Flush(); err != nil {
		t.Fatal(err)
	}
	_, oddURL := serveShard(t, other)
	if _, err := OpenRemote(context.Background(), append(urls, oddURL), 0); err == nil {
		t.Fatal("mismatched bin widths must fail")
	}
}
