package main

import "repro/internal/gen"

// metricDef is one named metric as BENCHMARK.json lists it. Bound is the
// share of the parent's median by which an end-to-end metric may worsen;
// per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// runSeconds is BENCHMARK.json's run_seconds: the default -seconds.
const runSeconds = 12

// endToEnd is the one metric set every workload reports with tracing
// off. The names are generic because every run must report all of them;
// README.md maps each (workload, metric) pair to what it measures there.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", lower, 0.25},
	{"op_slow_ms", "ms", lower, 0.25},
	{"krec_per_s", "krec/s", higher, 0.25},
	{"disk_bytes_per_rec", "B/rec", lower, 0.02},
	{"peak_rss_mb", "MB", lower, 0.25},
	{"setup_s", "s", lower, 0.25},
}

// Catalog anomaly kinds placed by extract-mix, one per bin; the miner
// per-layer metrics are reported per kind.
var anomalyKinds = []string{"portscan", "netscan", "ddos-syn", "udpflood", "dns-amplification", "link-outage"}

var minerNames = []string{"apriori", "fpgrowth", "fda"}

// Batch detectors timed over the extract-mix store.
var detectorNames = []string{"netreflex", "histogram", "pca", "cusum", "sketch"}

var corePhases = []string{"candidates", "mine-flows", "mine-packets", "supports", "baseline", "rank"}

// perLayer is the traced run's metric set, named <layer>.<metric> after
// this repo's packages. A workload reports 0 for a layer it never calls.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// store-write
		{Name: "nfstore.add_ns_per_rec", Unit: "ns/rec", Better: lower},
		{Name: "nfstore.flush_seal_ms", Unit: "ms", Better: lower},
		{Name: "nfstore.build_indexes_ms", Unit: "ms", Better: lower},
		{Name: "nfstore.open_ms", Unit: "ms", Better: lower},
		{Name: "nfstore.alloc_bytes_per_rec", Unit: "B/rec", Better: lower},
	}
	// scan-*: the v2 store under test and a v1 copy of the same data.
	for _, v := range []string{"v2", "v1"} {
		defs = append(defs,
			metricDef{Name: "nfstore.query_mrec_per_s." + v, Unit: "Mrec/s", Better: higher},
			metricDef{Name: "nfstore.query_broad_mrec_per_s." + v, Unit: "Mrec/s", Better: higher},
			metricDef{Name: "nfstore.count_mrec_per_s." + v, Unit: "Mrec/s", Better: higher},
			metricDef{Name: "nfstore.topn_mrec_per_s." + v, Unit: "Mrec/s", Better: higher},
			metricDef{Name: "nfstore.summaries_ms." + v, Unit: "ms", Better: lower},
		)
	}
	defs = append(defs,
		metricDef{Name: "nfstore.records_decoded_per_match", Unit: "count", Better: lower},
		metricDef{Name: "nfstore.blocks_pruned_frac", Unit: "frac", Better: higher},
		metricDef{Name: "nfstore.segments_pruned_frac", Unit: "frac", Better: higher},
		metricDef{Name: "nffilter.parse_us", Unit: "us", Better: lower},
		metricDef{Name: "nffilter.match_ns_per_rec", Unit: "ns/rec", Better: lower},
		// scan-sharded
		metricDef{Name: "shardstore.query_mrec_per_s.s4", Unit: "Mrec/s", Better: higher},
		metricDef{Name: "shardstore.count_mrec_per_s.s4", Unit: "Mrec/s", Better: higher},
		metricDef{Name: "shardstore.merge_overhead_frac", Unit: "frac", Better: lower},
		metricDef{Name: "shardstore.http_query_mrec_per_s.s4", Unit: "Mrec/s", Better: higher},
		// extract-mix
		metricDef{Name: "nfstore.iter_ns_per_rec", Unit: "ns/rec", Better: lower},
		metricDef{Name: "itemset.build_ns_per_flow", Unit: "ns/rec", Better: lower},
		metricDef{Name: "itemset.distinct_tx_frac", Unit: "frac", Better: lower},
		metricDef{Name: "itemset.supportall_ms", Unit: "ms", Better: lower},
		metricDef{Name: "itemset.coverage_ms", Unit: "ms", Better: lower},
		metricDef{Name: "itemset.maximal_ms", Unit: "ms", Better: lower},
	)
	for _, m := range minerNames {
		for _, k := range anomalyKinds {
			defs = append(defs,
				metricDef{Name: "miner." + m + ".mine_ms." + k, Unit: "ms", Better: lower},
				metricDef{Name: "miner." + m + ".alloc_mb." + k, Unit: "MB", Better: lower},
			)
		}
		defs = append(defs,
			metricDef{Name: "miner." + m + ".itemsets", Unit: "count", Better: higher},
			metricDef{Name: "core.extract_wide_ms." + m, Unit: "ms", Better: lower},
		)
	}
	for _, p := range corePhases {
		defs = append(defs, metricDef{Name: "core.phase_ms." + p, Unit: "ms", Better: lower})
	}
	defs = append(defs,
		metricDef{Name: "core.self_ms", Unit: "ms", Better: lower},
		metricDef{Name: "core.tuning_rounds", Unit: "count", Better: lower},
		metricDef{Name: "core.truth_rank1_frac", Unit: "frac", Better: higher},
		metricDef{Name: "jobs.queue_wait_ms", Unit: "ms", Better: lower},
		metricDef{Name: "jobs.overhead_ms", Unit: "ms", Better: lower},
	)
	for _, d := range detectorNames {
		defs = append(defs, metricDef{Name: "detector." + d + ".detect_ms", Unit: "ms", Better: lower})
	}
	// live-replay
	return append(defs,
		metricDef{Name: "stream.ingest_ns_per_rec", Unit: "ns/rec", Better: lower},
		metricDef{Name: "stream.cusum_observe_ns_per_rec", Unit: "ns/rec", Better: lower},
		metricDef{Name: "stream.sketch_observe_ns_per_rec", Unit: "ns/rec", Better: lower},
		metricDef{Name: "stream.dropped", Unit: "count", Better: lower},
		metricDef{Name: "stream.queue_len_max", Unit: "count", Better: lower},
		metricDef{Name: "stream.sealed_bins", Unit: "count", Better: higher},
		metricDef{Name: "stream.alarms", Unit: "count", Better: lower},
		metricDef{Name: "stream.gen_late_max_ms", Unit: "ms", Better: lower},
		metricDef{Name: "incident.seal_to_incident_p50_ms", Unit: "ms", Better: lower},
		metricDef{Name: "incident.correlate_ms", Unit: "ms", Better: lower},
		metricDef{Name: "incident.dedup_ratio", Unit: "frac", Better: higher},
		metricDef{Name: "incident.extra_incidents", Unit: "count", Better: lower},
	)
}

// maxTruthRank is the worst rank of the injected signature an extraction
// may report before it counts as a failed op: the floor the repo's own
// eval tests pin (true cause within the top 3). How often it is exactly
// first is core.truth_rank1_frac.
const maxTruthRank = 3

// truthRanked reports whether rank (0 = signature absent) clears the floor.
func truthRanked(rank int) bool { return rank >= 1 && rank <= maxTruthRank }

// catalogPlacement returns the named catalog anomaly placed in bin. The
// placement seed is fixed so the anomaly's size is frozen: the run seed
// drives which addresses and packets it emits, not how big it is.
func catalogPlacement(kind string, bin int) []gen.Placement {
	def, ok := gen.Lookup(kind)
	if !ok {
		panic("bench: unknown catalog scenario " + kind)
	}
	return def.Placements(1, bin)
}
