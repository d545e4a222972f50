// Package shardstore scales the flow store horizontally: a ShardedStore
// partitions records over N child stores (in-process directories or
// remote rcad peers) and answers the full nfstore.Engine query surface by
// scatter-gather — fan out over a bounded worker pool, merge with the
// same deterministic bin-order merge the single-store parallel engine
// uses. Zone-map pruning and aggregation pushdown run per shard, so a
// selective query touches only the shards (and segments, and blocks)
// that can hold matches.
//
// Two partitioning schemes are supported. "time" routes whole bins
// round-robin (bin index mod N): every bin lives in exactly one shard,
// so queries are byte-identical to a single merged store, including
// record order. "hash" routes by router ID (FNV-1a mod N): one hot bin's
// scan work splits across all shards — the scaling shape the clustered
// workload needs — at the cost of record order within a bin following
// (bin, shard) order instead of a single file's order; aggregations are
// still exact.
//
// # Remote shards
//
// A remote shard's one setting is the unary-call timeout (OpenRemote's
// timeout, rcad -peer-timeout; 0 means defaultPeerTimeout, 10 s). The
// rest is fixed:
//
//   - peerRetries = 2: a unary call that fails in transport is retried
//     twice, at once, so a transient error does not fail a scan; a peer
//     outage still fails fast. HTTP status errors (the peer is alive and
//     said no) and query streams never retry.
//   - peerClient sets no Client.Timeout, which would cap streaming query
//     reads; unary calls get per-call context deadlines instead.
package shardstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// ManifestFile names the shard-map manifest inside a sharded store
// directory. Its presence is what distinguishes a sharded store from a
// plain single-directory store.
const ManifestFile = "shards.json"

// Partitioning schemes.
const (
	// PartitionTime routes records to shard (binIndex mod N): bins stay
	// whole, queries reproduce single-store byte order exactly.
	PartitionTime = "time"
	// PartitionHash routes records to shard (fnv1a(router) mod N): every
	// bin spreads over all shards, so even a single hot bin scans with
	// N-way parallelism.
	PartitionHash = "hash"
)

// manifestVersion is the current shard-map format version.
const manifestVersion = 1

// Manifest is the persisted shard map of a sharded store directory.
type Manifest struct {
	Version    int    `json:"version"`
	Partition  string `json:"partition"`
	Shards     int    `json:"shards"`
	BinSeconds uint32 `json:"bin_seconds"`
}

func validPartition(p string) bool {
	return p == PartitionTime || p == PartitionHash
}

// shardDirName names shard i's child directory.
func shardDirName(i int) string { return fmt.Sprintf("shard-%04d", i) }

// IsShardedDir reports whether dir holds a sharded store (a shard-map
// manifest), letting tools route between shardstore.Open and
// nfstore.Open.
func IsShardedDir(dir string) bool {
	fi, err := os.Stat(filepath.Join(dir, ManifestFile))
	return err == nil && fi.Mode().IsRegular()
}

// ShardDirs lists the child store directories of a sharded store in
// shard order, from its manifest.
func ShardDirs(dir string) ([]string, error) {
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	dirs := make([]string, m.Shards)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, shardDirName(i))
	}
	return dirs, nil
}

func writeManifest(dir string, m Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, ManifestFile)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("shardstore: write manifest: %w", err)
	}
	return nil
}

func readManifest(dir string) (Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("shardstore: read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return Manifest{}, fmt.Errorf("shardstore: parse manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return Manifest{}, fmt.Errorf("shardstore: manifest version %d (want %d)", m.Version, manifestVersion)
	}
	if !validPartition(m.Partition) {
		return Manifest{}, fmt.Errorf("shardstore: unknown partition scheme %q", m.Partition)
	}
	if m.Shards < 1 {
		return Manifest{}, fmt.Errorf("shardstore: manifest shard count %d", m.Shards)
	}
	if m.BinSeconds == 0 {
		return Manifest{}, fmt.Errorf("shardstore: manifest bin_seconds 0")
	}
	return m, nil
}
