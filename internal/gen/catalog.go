package gen

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/flow"
	"repro/internal/stats"
)

// Def is one entry of the scenario catalog: a named, seeded, composable
// trace specification. A Def is declarative — geometry, background model
// and a placement builder — and Scenario(seed) turns it into a concrete
// generator run. The same Def and seed always produce the identical
// trace (the determinism contract of DESIGN.md §7).
type Def struct {
	// Name is the catalog key ("portscan", "dns-amplification", ...).
	Name string
	// Summary is the one-line operator description used by docs and CLI
	// listings.
	Summary string
	// ExpectFail marks scenarios whose extraction is expected to produce
	// no meaningful itemsets (stealthy anomalies, quiet traces) — the
	// paper's 6% failure class.
	ExpectFail bool
	// Bins and AnomalyBin define the geometry; zero values inherit 12
	// bins with the anomaly placed at bin 6. That is enough baseline
	// history for the PCA subspace method (at least 8 bins) but not for
	// the histogram detector, whose first 12 bins only train its
	// reference: on the default geometry it never alarms, and the
	// evaluation falls back to a synthesized alarm.
	Bins       int
	AnomalyBin int
	// Background overrides the catalog default background (nil keeps
	// it: 3 PoPs, 300 flows/bin, suite-sized pools).
	Background *Background
	// Place builds the anomaly set for one run. Anomalies are placed in
	// AnomalyBin, staggered by BinOffsets; nil means a quiet trace. The
	// rng is forked from the run seed, keeping placements deterministic
	// per (Def, seed).
	Place func(rng *stats.RNG) []Anomaly
	// BinOffsets staggers the placed anomalies relative to AnomalyBin:
	// anomaly i lands in AnomalyBin+BinOffsets[i] (missing entries = 0,
	// i.e. the composition-in-one-bin default). A composite cascade —
	// recon one bin before the attack — is offsets {0, 1}.
	BinOffsets []int
	// Composite marks the placed anomalies as phases of one event: the
	// incident layer should correlate them into a single incident, and
	// incident-mode evaluation scores their truth entries jointly.
	Composite bool
	// Trace, when set, replaces the synthetic background with a replayed
	// flow trace: the hook returns raw trace bytes in a ReadTrace format
	// (NFTR binary or CSV), deterministic per rng, fed into
	// Scenario.Trace. Anomalies still inject on top of the replayed
	// traffic, so the replayed-trace scenarios exercise the full trace
	// reader inside the eval matrix.
	Trace func(rng *stats.RNG) []byte
}

// catalogStart is the fixed trace start of catalog scenarios, aligned to
// the 300 s measurement bin.
const catalogStart = 1_300_000_200

// Scenario instantiates the Def for a seed.
func (d Def) Scenario(seed uint64) *Scenario {
	bins := d.Bins
	if bins <= 0 {
		bins = 12
	}
	bin := d.AnomalyBin
	if bin <= 0 || bin >= bins {
		bin = bins / 2
	}
	bg := DefaultBackground()
	bg.NumPoPs = 3
	bg.FlowsPerBin = 300
	if d.Background != nil {
		bg = *d.Background
	}
	s := &Scenario{
		Background: bg,
		Bins:       bins,
		StartTime:  catalogStart,
		Seed:       seed,
		Placements: d.Placements(seed, bin),
		Composite:  d.Composite,
	}
	if d.Trace != nil {
		s.Trace = d.Trace(stats.NewRNG(seed).Fork(0x7ace))
	}
	return s
}

// Placements builds the Def's anomaly placements for a seed, placed in
// the given bin — the seam for embedding catalog anomalies in custom
// scenario geometry (cmd/flowgen).
func (d Def) Placements(seed uint64, bin int) []Placement {
	if d.Place == nil {
		return nil
	}
	var placements []Placement
	for i, a := range d.Place(stats.NewRNG(seed).Fork(0xca7a)) {
		offset := 0
		if i < len(d.BinOffsets) {
			offset = d.BinOffsets[i]
		}
		placements = append(placements, Placement{Anomaly: a, Bin: bin + offset})
	}
	return placements
}

var (
	catalogMu sync.RWMutex
	catalog   = make(map[string]Def)
)

// Register adds a scenario definition to the catalog. Registering an
// empty name or a duplicate is an error.
func Register(d Def) error {
	if d.Name == "" {
		return fmt.Errorf("gen: scenario definition needs a name")
	}
	catalogMu.Lock()
	defer catalogMu.Unlock()
	if _, dup := catalog[d.Name]; dup {
		return fmt.Errorf("gen: scenario %q already registered", d.Name)
	}
	catalog[d.Name] = d
	return nil
}

// mustRegister registers the built-in catalog; a failure is a programming
// error.
func mustRegister(d Def) {
	if err := Register(d); err != nil {
		panic(err)
	}
}

// Lookup returns the named catalog entry.
func Lookup(name string) (Def, bool) {
	catalogMu.RLock()
	defer catalogMu.RUnlock()
	d, ok := catalog[name]
	return d, ok
}

// Names lists the catalog in sorted order.
func Names() []string {
	catalogMu.RLock()
	defer catalogMu.RUnlock()
	names := make([]string, 0, len(catalog))
	for n := range catalog {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Built-in catalog addresses: victims/services in the 198.19.0.0/16
// benchmark space, scanners in 10.200.0.0/16, botnets and client pools in
// 172.16.0.0/12, reflector fleets in 100.64.0.0/10 (CGN space).
var (
	catVictim    = flow.MustParseIP("198.19.7.7")
	catService   = flow.MustParseIP("198.19.40.10")
	catScanner   = flow.MustParseIP("10.200.3.3")
	catBotNet    = flow.MustParsePrefix("172.16.0.0/12")
	catReflector = flow.MustParsePrefix("100.64.0.0/10")
	catTarget    = flow.MustParsePrefix("198.19.64.0/18")
	catMXNet     = flow.MustParsePrefix("198.19.32.0/24")
	catOutage    = flow.MustParsePrefix("198.19.40.0/24")
)

func init() {
	mustRegister(Def{
		Name:       "quiet",
		Summary:    "background traffic only — the detector-false-positive baseline",
		ExpectFail: true,
	})
	mustRegister(Def{
		Name:    "portscan",
		Summary: "one scanner sweeping a victim's ports from a fixed source port (the paper's Table 1 anomaly)",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{PortScan{
				Scanner: catScanner, Victim: catVictim, SrcPort: 55548,
				Ports: 8000 + rng.Intn(4000), FlowsPerPort: 3, Router: 1,
			}}
		},
	})
	mustRegister(Def{
		Name:    "netscan",
		Summary: "one scanner probing a /18 for a single vulnerable port",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{NetworkScan{
				Scanner: catScanner, Prefix: catTarget,
				Hosts: 8000 + rng.Intn(4000), DstPort: 445, Router: 1,
			}}
		},
	})
	mustRegister(Def{
		Name:    "ddos-syn",
		Summary: "distributed TCP SYN flood: thousands of sources against one web service",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{SYNFlood{
				Victim: catVictim, DstPort: 80, Sources: 4000 + rng.Intn(2000),
				FlowsPerSource: 4, SourceNet: catBotNet, Router: 2,
			}}
		},
	})
	mustRegister(Def{
		Name:    "dos-syn",
		Summary: "single-source TCP SYN flood",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{SYNFlood{
				Victim: catVictim, DstPort: 80, Sources: 1,
				FlowsPerSource: 9000 + rng.Intn(3000), SourceNet: catBotNet, Router: 2,
			}}
		},
	})
	mustRegister(Def{
		Name:    "udpflood",
		Summary: "point-to-point UDP flood: a handful of flows carrying millions of packets (needs packet support)",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{UDPFlood{
				Src: catScanner, Dst: catVictim, DstPort: 9999,
				Flows: 3 + rng.Intn(5), PacketsPerFlow: uint64(1_500_000 + rng.Intn(2_000_000)),
				Router: 1,
			}}
		},
	})
	mustRegister(Def{
		Name:    "flashcrowd",
		Summary: "legitimate flash event: thousands of real clients rushing one service",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{FlashCrowd{
				Server: catService, Port: 80, Clients: 3000 + rng.Intn(1000),
				FlowsPerClient: 4, Router: 0,
			}}
		},
	})
	mustRegister(Def{
		Name:       "stealthy",
		Summary:    "low-rate randomized scan below the miner's reach (the paper's 6% failure class)",
		ExpectFail: true,
		Place: func(rng *stats.RNG) []Anomaly {
			// The victim is a popular background server and the probe
			// count sits below the miner's absolute support floor, so
			// the scan drowns in legitimate traffic: itemsets covering
			// it are impure, and no pure sub-itemset is frequent enough
			// to report.
			return []Anomaly{Stealthy{
				Scanner: catScanner, Victim: flow.MustParseIP("198.18.0.2"),
				Flows: 6 + rng.Intn(3), Router: 0,
			}}
		},
	})
	mustRegister(Def{
		Name:    "dns-amplification",
		Summary: "DNS reflection-amplification DDoS: many reflectors answering from source port 53",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{AmplificationFlood{
				Victim: catVictim, Service: 53,
				Reflectors: 1200 + rng.Intn(600), ReflectorNet: catReflector,
				FlowsPerReflector: 3, PacketsPerFlow: uint64(150 + rng.Intn(150)), Router: 1,
			}}
		},
	})
	mustRegister(Def{
		Name:    "ntp-amplification",
		Summary: "NTP monlist amplification DDoS: reflectors answering from source port 123",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{AmplificationFlood{
				Victim: catVictim, Service: 123,
				Reflectors: 900 + rng.Intn(400), ReflectorNet: catReflector,
				FlowsPerReflector: 4, PacketsPerFlow: uint64(300 + rng.Intn(300)), Router: 2,
			}}
		},
	})
	mustRegister(Def{
		Name:    "icmp-flood",
		Summary: "distributed ICMP echo flood against one victim",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{ICMPFlood{
				Victim: catVictim, Sources: 800 + rng.Intn(400), SourceNet: catBotNet,
				FlowsPerSource: 5, PacketsPerFlow: uint64(400 + rng.Intn(400)), Router: 0,
			}}
		},
	})
	mustRegister(Def{
		Name:    "botnet-scan",
		Summary: "coordinated multi-source scan: a botnet sweeping a /18 for one service",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{BotnetScan{
				Bots: 300 + rng.Intn(100), BotNet: catBotNet,
				Prefix: catTarget, HostsPerBot: 40 + rng.Intn(20), DstPort: 5060, Router: 1,
			}}
		},
	})
	mustRegister(Def{
		Name:    "link-outage",
		Summary: "blackholed prefix: background traffic to it vanishes while clients retry the primary service",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{LinkOutage{
				Prefix: catOutage, Service: catService, Port: 443,
				Clients: 1500 + rng.Intn(500), Retries: 6, Router: 0,
			}}
		},
	})
	mustRegister(Def{
		Name:    "prefix-migration",
		Summary: "routing shift: a popular service re-announced through a new PoP, clients reconnecting at once",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{PrefixMigration{
				Service: catService, Port: 443,
				Clients: 2500 + rng.Intn(800), FlowsPerClient: 3,
				OldRouter: 0, NewRouter: 2,
			}}
		},
	})
	mustRegister(Def{
		Name:    "spam-campaign",
		Summary: "botnet spam run: hundreds of bots delivering to many MX hosts on port 25",
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{SpamCampaign{
				Bots: 700 + rng.Intn(300), BotNet: catBotNet,
				MXHosts: 60, MXNet: catMXNet, FlowsPerBot: 8, Router: 2,
			}}
		},
	})
	mustRegister(Def{
		Name:    "portscan-ddos",
		Summary: "composite cascade: a port scan, then a SYN DDoS on the same victim one bin later (the Table-1 situation)",
		// The scan precedes the flood by one bin — the cascade the
		// incident layer's lead-lag chain must order.
		BinOffsets: []int{0, 1},
		Composite:  true,
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{
				PortScan{
					Scanner: catScanner, Victim: catVictim, SrcPort: 55548,
					Ports: 8000 + rng.Intn(4000), FlowsPerPort: 3, Router: 1,
				},
				SYNFlood{
					Victim: catVictim, DstPort: 80, Sources: 3000 + rng.Intn(1000),
					FlowsPerSource: 4, SourceNet: catBotNet, Router: 2,
				},
			}
		},
	})
	// Replayed-trace scenarios: the background is a heavy-tailed trace
	// dump fed through the trace reader (one per supported format)
	// instead of live synthesis, so the eval matrix exercises the full
	// replay path — parse, clock rebase, injection on top. 12 bins of
	// 300 s at 300 flows/bin/PoP match the synthetic catalog volume.
	mustRegister(Def{
		Name:    "trace-ddos",
		Summary: "replayed CSV flow trace as background with a distributed SYN flood injected on top",
		Trace: func(rng *stats.RNG) []byte {
			return EncodeTraceCSV(SynthTraceRecords(rng, 12, 300, 300))
		},
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{SYNFlood{
				Victim: catVictim, DstPort: 80, Sources: 4000 + rng.Intn(2000),
				FlowsPerSource: 4, SourceNet: catBotNet, Router: 2,
			}}
		},
	})
	mustRegister(Def{
		Name:    "trace-portscan",
		Summary: "replayed nfcapd-style binary flow trace as background with a port scan injected on top",
		Trace: func(rng *stats.RNG) []byte {
			return EncodeTraceBinary(SynthTraceRecords(rng, 12, 300, 300))
		},
		Place: func(rng *stats.RNG) []Anomaly {
			return []Anomaly{PortScan{
				Scanner: catScanner, Victim: catVictim, SrcPort: 55548,
				Ports: 8000 + rng.Intn(4000), FlowsPerPort: 3, Router: 1,
			}}
		},
	})
}
