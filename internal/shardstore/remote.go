package shardstore

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"iter"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/flow"
	"repro/internal/nffilter"
	"repro/internal/nfstore"
)

// shardPathPrefix is where peers mount Handler under their API root.
const shardPathPrefix = "/api/v1/shard"

// Remote-client configuration; the package doc gives the reasons.
const (
	defaultPeerTimeout = 10 * time.Second
	peerRetries        = 2
)

// peerClient serves every remote shard.
var peerClient = &http.Client{}

// statusError is a non-2xx peer response; never retried (the peer is
// alive and said no).
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string {
	if e.msg != "" {
		return fmt.Sprintf("peer status %d: %s", e.status, e.msg)
	}
	return fmt.Sprintf("peer status %d", e.status)
}

// RemoteShard is one shard living behind a peer rcad node's
// /api/v1/shard endpoints: a read-only nfstore.Engine. Add and AddAll
// return errReadOnly and Flush is a no-op — ingest happens on the peer
// that owns the shard.
type RemoteShard struct {
	name        string        // the peer URL as configured (error messages, the shard name)
	base        string        // name + shardPathPrefix, no trailing slash
	timeout     time.Duration // per unary call
	binSeconds  uint32
	writeFormat uint16
}

// NewRemoteShard builds a client for one peer and validates it by
// fetching its meta (bin width, write format) within one unary timeout.
// timeout bounds each unary call (meta, bins, count, summaries, topn,
// stats); 0 means 10 s. Query streams are bounded only by the caller's
// context — a long scatter-gather scan is not a failure.
func NewRemoteShard(ctx context.Context, peer string, timeout time.Duration) (*RemoteShard, error) {
	peer = strings.TrimRight(peer, "/")
	if !strings.Contains(peer, "://") {
		peer = "http://" + peer
	}
	if _, err := url.Parse(peer); err != nil {
		return nil, fmt.Errorf("shardstore: peer %q: %w", peer, err)
	}
	if timeout <= 0 {
		timeout = defaultPeerTimeout
	}
	r := &RemoteShard{name: peer, base: peer + shardPathPrefix, timeout: timeout}
	var meta metaWire
	if err := r.getJSON(ctx, "/meta", nil, &meta); err != nil {
		return nil, fmt.Errorf("shardstore: peer %s: %w", peer, err)
	}
	if meta.BinSeconds == 0 {
		return nil, fmt.Errorf("shardstore: peer %s reports bin width 0", peer)
	}
	r.binSeconds = meta.BinSeconds
	r.writeFormat = meta.WriteFormat
	return r, nil
}

// OpenRemote assembles a read-only sharded store whose shards are peer
// rcad nodes, one shard per peer. Every peer must agree on the bin
// width; the resulting store answers the full Engine read surface by
// HTTP scatter-gather and rejects writes. timeout is NewRemoteShard's.
func OpenRemote(ctx context.Context, peers []string, timeout time.Duration) (*ShardedStore, error) {
	if len(peers) == 0 {
		return nil, errors.New("shardstore: no peers")
	}
	shards := make([]nfstore.Engine, len(peers))
	names := make([]string, len(peers))
	var binSeconds uint32
	for i, peer := range peers {
		r, err := NewRemoteShard(ctx, peer, timeout)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			binSeconds = r.binSeconds
		} else if r.binSeconds != binSeconds {
			return nil, fmt.Errorf("shardstore: peer %s bin width %d != %d (peer %s)",
				r.name, r.binSeconds, binSeconds, peers[0])
		}
		shards[i], names[i] = r, r.name
	}
	m := Manifest{
		Version:    manifestVersion,
		Partition:  PartitionTime, // reads never consult it; writes are rejected
		Shards:     len(peers),
		BinSeconds: binSeconds,
	}
	return newFromShards(m, names, shards)
}

func (r *RemoteShard) BinSeconds() uint32         { return r.binSeconds }
func (r *RemoteShard) SegmentFormat() uint16      { return r.writeFormat }
func (r *RemoteShard) Add(*flow.Record) error     { return errReadOnly }
func (r *RemoteShard) AddAll([]flow.Record) error { return errReadOnly }
func (r *RemoteShard) Flush() error               { return nil }
func (r *RemoteShard) Close() error               { return nil }

// Iter returns a range-over-func iterator over the peer's matching
// records; see nfstore.Iter.
func (r *RemoteShard) Iter(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) iter.Seq2[*flow.Record, error] {
	return nfstore.Iter(ctx, r, iv, filter)
}

// Records collects the peer's matching records into a slice; see
// nfstore.Records.
func (r *RemoteShard) Records(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]flow.Record, error) {
	return nfstore.Records(ctx, r, iv, filter)
}

// spanParams encodes the common span+filter query string.
func spanParams(iv flow.Interval, filter *nffilter.Filter) url.Values {
	v := url.Values{}
	v.Set("start", strconv.FormatUint(uint64(iv.Start), 10))
	v.Set("end", strconv.FormatUint(uint64(iv.End), 10))
	if filter != nil {
		v.Set("filter", filter.String())
	}
	return v
}

// getJSON performs one unary GET with the per-peer timeout and bounded
// retries on transport errors. HTTP-level failures (a 4xx/5xx from a
// live peer) are returned immediately.
func (r *RemoteShard) getJSON(ctx context.Context, path string, params url.Values, into any) error {
	u := r.base + path
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	var lastErr error
	for attempt := 0; attempt <= peerRetries; attempt++ {
		cctx, cancel := context.WithTimeout(ctx, r.timeout)
		err := r.doJSON(cctx, http.MethodGet, u, into)
		cancel()
		if err == nil {
			return nil
		}
		lastErr = err
		var se *statusError
		if errors.As(err, &se) || ctx.Err() != nil {
			return err
		}
	}
	return lastErr
}

// postUnary performs one POST (no response body expected) with the
// unary timeout, unretried.
func (r *RemoteShard) postUnary(ctx context.Context, path string) error {
	cctx, cancel := context.WithTimeout(ctx, r.timeout)
	defer cancel()
	return r.doJSON(cctx, http.MethodPost, r.base+path, nil)
}

func (r *RemoteShard) doJSON(ctx context.Context, method, u string, into any) error {
	req, err := http.NewRequestWithContext(ctx, method, u, nil)
	if err != nil {
		return err
	}
	resp, err := peerClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return &statusError{status: resp.StatusCode, msg: readErrBody(resp.Body)}
	}
	if into == nil {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

// readErrBody extracts the error message from a failed response,
// understanding the {"error": ...} convention with a plain-text
// fallback.
func readErrBody(body io.Reader) string {
	data, _ := io.ReadAll(io.LimitReader(body, 4096))
	var e errWire
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(data))
}

func (r *RemoteShard) Bins() ([]uint32, error) {
	var out binsWire
	if err := r.getJSON(context.Background(), "/bins", nil, &out); err != nil {
		return nil, err
	}
	return out.Bins, nil
}

func (r *RemoteShard) Span() (flow.Interval, bool, error) {
	var out spanWire
	if err := r.getJSON(context.Background(), "/span", nil, &out); err != nil {
		return flow.Interval{}, false, err
	}
	return flow.Interval{Start: out.Start, End: out.End}, out.OK, nil
}

func (r *RemoteShard) Count(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) (uint64, uint64, uint64, error) {
	var out countWire
	if err := r.getJSON(ctx, "/count", spanParams(iv, filter), &out); err != nil {
		return 0, 0, 0, err
	}
	return out.Flows, out.Packets, out.Bytes, nil
}

func (r *RemoteShard) Summaries(ctx context.Context, iv flow.Interval, filter *nffilter.Filter) ([]nfstore.BinSummary, error) {
	var out summariesWire
	if err := r.getJSON(ctx, "/summaries", spanParams(iv, filter), &out); err != nil {
		return nil, err
	}
	sums := make([]nfstore.BinSummary, len(out.Summaries))
	for i, s := range out.Summaries {
		sums[i] = nfstore.BinSummary{
			Bin:     flow.Interval{Start: s.BinStart, End: s.BinEnd},
			Flows:   s.Flows,
			Packets: s.Packets,
			Bytes:   s.Bytes,
		}
	}
	return sums, nil
}

func (r *RemoteShard) TopN(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, feat flow.Feature, weight nfstore.Weight, k int) ([]nfstore.KeyCount, error) {
	params := spanParams(iv, filter)
	params.Set("feature", strconv.Itoa(int(feat)))
	params.Set("weight", strconv.Itoa(int(weight)))
	params.Set("k", strconv.Itoa(k))
	var out topnWire
	if err := r.getJSON(ctx, "/topn", params, &out); err != nil {
		return nil, err
	}
	return out.Rows, nil
}

// Stats returns the peer's scan counters, zero when it is unreachable
// (SegmentFormats, over the same endpoint, reports the failure).
func (r *RemoteShard) Stats() nfstore.Stats {
	var out statsWire
	_ = r.getJSON(context.Background(), "/stats", nil, &out)
	return out.Stats
}

// ResetStats zeroes the peer's scan counters (best effort).
func (r *RemoteShard) ResetStats() {
	_ = r.postUnary(context.Background(), "/stats/reset")
}

func (r *RemoteShard) SegmentFormats() (map[uint16]int, error) {
	var out statsWire
	if err := r.getJSON(context.Background(), "/stats", nil, &out); err != nil {
		return nil, err
	}
	return out.SegmentFormats, nil
}

// Scan streams the peer's matching rows through the framed binary
// protocol, one batch per frame, with the nfstore.Engine contract:
// ErrStopIteration from fn ends the scan cleanly. The frames carry whole
// records; the batch keeps only cols. The stream is bounded only by ctx:
// callback errors close the connection (the peer aborts its scan via the
// dropped request context), a missing terminator frame is a loud
// truncation error, and an error frame carries the peer's own message.
func (r *RemoteShard) Scan(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, cols nffilter.ColumnSet, fn func(*nfstore.Batch) error) error {
	u := r.base + "/query?" + spanParams(iv, filter).Encode()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := peerClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &statusError{status: resp.StatusCode, msg: readErrBody(resp.Body)}
	}
	var (
		hdr   [4]byte
		batch nfstore.Batch
		buf   []byte
	)
	for {
		if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
			return fmt.Errorf("query stream truncated (no terminator): %w", err)
		}
		count := binary.LittleEndian.Uint32(hdr[:])
		switch {
		case count == 0:
			return nil // clean terminator
		case count == queryErrFrame:
			if _, err := io.ReadFull(resp.Body, hdr[:]); err != nil {
				return fmt.Errorf("query stream truncated in error frame: %w", err)
			}
			msgLen := binary.LittleEndian.Uint32(hdr[:])
			if msgLen > 1<<20 {
				return fmt.Errorf("query error frame of %d bytes", msgLen)
			}
			msg := make([]byte, msgLen)
			if _, err := io.ReadFull(resp.Body, msg); err != nil {
				return fmt.Errorf("query stream truncated in error frame: %w", err)
			}
			return errors.New(string(msg))
		case count > 1<<20:
			return fmt.Errorf("query frame of %d records", count)
		}
		need := int(count) * nfstore.RecordSize
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		buf = buf[:need]
		if _, err := io.ReadFull(resp.Body, buf); err != nil {
			return fmt.Errorf("query stream truncated mid-frame: %w", err)
		}
		nfstore.DecodeRecords(buf, cols, &batch)
		if err := fn(&batch); err != nil {
			// Returning closes the body, which aborts the peer-side scan.
			if errors.Is(err, nfstore.ErrStopIteration) {
				return nil
			}
			return err
		}
	}
}

// Query streams the rows Scan would, one record at a time
// (nfstore.Query).
func (r *RemoteShard) Query(ctx context.Context, iv flow.Interval, filter *nffilter.Filter, fn func(*flow.Record) error) error {
	return nfstore.Query(ctx, r, iv, filter, fn)
}

// Compile-time check: a remote peer is a (read-only) engine.
var _ nfstore.Engine = (*RemoteShard)(nil)
