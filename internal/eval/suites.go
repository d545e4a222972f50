package eval

import (
	"fmt"
	"path/filepath"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/miner"
	"repro/internal/stats"
)

// ScenarioSpec is one suite scenario: its geometry, its placements (the
// first placement is the primary anomaly the alarm points at; a spec
// without placements is a detector false positive, alarmed on the quiet
// middle bin), and whether extraction is expected to fail (stealthy
// anomalies and detector false positives — the paper's 6%).
type ScenarioSpec struct {
	Name string
	// Bins is the trace length; each placement names its own bin.
	Bins       int
	Placements []gen.Placement
	// ExpectFail marks scenarios whose alarm should yield no useful
	// itemsets.
	ExpectFail bool
}

// scenario instantiates the spec as the i-th scenario of a suite run.
func (s ScenarioSpec) scenario(i int, cfg suiteConfig) *gen.Scenario {
	background := gen.DefaultBackground()
	background.NumPoPs = 3
	background.FlowsPerBin = 300
	return &gen.Scenario{
		Background: background,
		Bins:       s.Bins,
		StartTime:  1_300_000_200,
		Seed:       cfg.SeedBase + uint64(i)*7919,
		SampleRate: cfg.SampleRate,
		Placements: s.Placements,
	}
}

// suiteConfig parameterizes a suite run.
type suiteConfig struct {
	// WorkDir hosts the per-scenario stores; "" uses a temp directory
	// that is removed afterwards.
	WorkDir string
	// SeedBase seeds scenario generation (scenario i uses
	// SeedBase+i*7919).
	SeedBase uint64
	// SampleRate applies 1-in-N packet sampling (GEANT: 100; SWITCH: 1).
	SampleRate uint32
	// Detector names the registered detector whose alarm on the anomaly
	// bin each scenario extracts, falling back to the synthesized
	// ground-truth alarm when it misses (ComboScore.AlarmSource). ""
	// synthesizes every alarm (the paper's evaluations also start from a
	// given alarm set, not from detector recall).
	Detector string
}

// SuiteResult aggregates a suite run: one cell per scenario, scored as
// the evaluation matrix scores its cells.
type SuiteResult struct {
	Name  string
	Evals []ComboScore
}

// Useful counts scenarios whose extraction produced useful itemsets.
func (s *SuiteResult) Useful() int {
	n := 0
	for _, e := range s.Evals {
		if e.Useful {
			n++
		}
	}
	return n
}

// Additional counts scenarios where extraction evidenced flows beyond the
// alarm meta-data.
func (s *SuiteResult) Additional() int {
	n := 0
	for _, e := range s.Evals {
		if e.Additional {
			n++
		}
	}
	return n
}

// UsefulFraction returns Useful()/len.
func (s *SuiteResult) UsefulFraction() float64 {
	if len(s.Evals) == 0 {
		return 0
	}
	return float64(s.Useful()) / float64(len(s.Evals))
}

// AdditionalFraction returns Additional()/Useful() — the paper reports the
// 28% relative to the alarms with useful itemsets.
func (s *SuiteResult) AdditionalFraction() float64 {
	u := s.Useful()
	if u == 0 {
		return 0
	}
	return float64(s.Additional()) / float64(u)
}

// GEANTSpecs returns the 40-scenario suite mirroring the GEANT evaluation:
// the anomaly-class mix reported for the network (scans, SYN DDoS and the
// frequent point-to-point UDP floods), ten scenarios with a co-occurring
// secondary anomaly on the same target (the paper's Table 1 situation,
// feeding the 26-28% additional-evidence statistic), one stealthy anomaly
// and one detector false positive (the 6% failures).
func GEANTSpecs(seed uint64) []ScenarioSpec {
	const bins, anomalyBin = 6, 3
	rng := stats.NewRNG(seed)
	var specs []ScenarioSpec
	victim := func(i int) flow.IP { return flow.IPFromOctets(198, 19, byte(i), byte(rng.Intn(250))) }
	scanner := func(i int) flow.IP { return flow.IPFromOctets(10, 200, byte(i), byte(rng.Intn(250))) }

	// 11 port scans; the first 3 carry a second scanner, the next 2 a
	// co-occurring DDoS (Table 1's exact situation).
	for i := 0; i < 11; i++ {
		v := victim(i)
		sp := uint16(50000 + rng.Intn(10000))
		primary := gen.PortScan{
			Scanner: scanner(i), Victim: v, SrcPort: sp,
			Ports: 8000 + rng.Intn(4000), FlowsPerPort: 3, Router: uint16(rng.Intn(3)),
		}
		spec := ScenarioSpec{Name: fmt.Sprintf("port-scan-%d", i),
			Placements: []gen.Placement{{Anomaly: primary, Bin: anomalyBin}}}
		switch {
		case i < 3:
			spec.Placements = append(spec.Placements, gen.Placement{Anomaly: gen.PortScan{
				Scanner: scanner(100 + i), Victim: v, SrcPort: sp,
				Ports: 7000 + rng.Intn(3000), FlowsPerPort: 3, Router: uint16(rng.Intn(3)),
			}, Bin: anomalyBin})
		case i < 5:
			spec.Placements = append(spec.Placements, gen.Placement{Anomaly: gen.SYNFlood{
				Victim: v, DstPort: 80, Sources: 3000, FlowsPerSource: 4,
				SourceNet: flow.MustParsePrefix("172.16.0.0/12"), Router: uint16(rng.Intn(3)),
			}, Bin: anomalyBin})
		}
		specs = append(specs, spec)
	}

	// 7 network scans; the first has a second scanner on the same port.
	for i := 0; i < 7; i++ {
		port := []uint16{445, 22, 3389, 23, 1433, 5900, 8080}[i]
		primary := gen.NetworkScan{
			Scanner: scanner(20 + i), Prefix: flow.MustParsePrefix("198.19.64.0/18"),
			Hosts: 8000 + rng.Intn(4000), DstPort: port, Router: uint16(rng.Intn(3)),
		}
		spec := ScenarioSpec{Name: fmt.Sprintf("net-scan-%d", i),
			Placements: []gen.Placement{{Anomaly: primary, Bin: anomalyBin}}}
		if i == 0 {
			spec.Placements = append(spec.Placements, gen.Placement{Anomaly: gen.NetworkScan{
				Scanner: scanner(120), Prefix: flow.MustParsePrefix("198.19.128.0/18"),
				Hosts: 6000, DstPort: port, Router: uint16(rng.Intn(3)),
			}, Bin: anomalyBin})
		}
		specs = append(specs, spec)
	}

	// 9 SYN-flood DDoS; the first 3 carry a second DDoS on another port of
	// the same victim.
	for i := 0; i < 9; i++ {
		v := victim(40 + i)
		primary := gen.SYNFlood{
			Victim: v, DstPort: 80, Sources: 4000 + rng.Intn(2000), FlowsPerSource: 4,
			SourceNet: flow.MustParsePrefix("172.16.0.0/12"), Router: uint16(rng.Intn(3)),
		}
		spec := ScenarioSpec{Name: fmt.Sprintf("ddos-%d", i),
			Placements: []gen.Placement{{Anomaly: primary, Bin: anomalyBin}}}
		if i < 3 {
			spec.Placements = append(spec.Placements, gen.Placement{Anomaly: gen.SYNFlood{
				Victim: v, DstPort: 443, Sources: 3000, FlowsPerSource: 4,
				SourceNet: flow.MustParsePrefix("172.16.0.0/12"), Router: uint16(rng.Intn(3)),
			}, Bin: anomalyBin})
		}
		specs = append(specs, spec)
	}

	// 9 point-to-point UDP floods; the first carries a second flood source
	// against the same target.
	for i := 0; i < 9; i++ {
		dst := victim(60 + i)
		primary := gen.UDPFlood{
			Src: scanner(60 + i), Dst: dst, DstPort: uint16(1024 + rng.Intn(60000)),
			Flows: 2 + rng.Intn(6), PacketsPerFlow: uint64(1_000_000 + rng.Intn(4_000_000)),
			Router: uint16(rng.Intn(3)),
		}
		spec := ScenarioSpec{Name: fmt.Sprintf("udp-flood-%d", i),
			Placements: []gen.Placement{{Anomaly: primary, Bin: anomalyBin}}}
		if i == 0 {
			spec.Placements = append(spec.Placements, gen.Placement{Anomaly: gen.UDPFlood{
				Src: scanner(160), Dst: dst, DstPort: primary.DstPort,
				Flows: 3, PacketsPerFlow: 2_000_000, Router: uint16(rng.Intn(3)),
			}, Bin: anomalyBin})
		}
		specs = append(specs, spec)
	}

	// 2 flash events (legitimate surges NetReflex still flags; extraction
	// summarizes them cleanly, so they count as useful).
	for i := 0; i < 2; i++ {
		specs = append(specs, ScenarioSpec{Name: fmt.Sprintf("flash-%d", i),
			Placements: []gen.Placement{{Anomaly: gen.FlashCrowd{
				Server: victim(80 + i), Port: 80, Clients: 3000, FlowsPerClient: 4,
				Router: uint16(rng.Intn(3)),
			}, Bin: anomalyBin}}})
	}

	// 1 stealthy anomaly: too few flows to mine (paper: "stealthy anomaly
	// not captured by our extraction technique").
	specs = append(specs, ScenarioSpec{Name: "stealthy", ExpectFail: true,
		Placements: []gen.Placement{{Anomaly: gen.Stealthy{
			Scanner: scanner(90), Victim: victim(90), Flows: 25, Router: 0,
		}, Bin: anomalyBin}}})

	// 1 detector false positive: an alarm with nothing behind it.
	specs = append(specs, ScenarioSpec{Name: "false-positive", ExpectFail: true})

	for i := range specs {
		specs[i].Bins = bins
	}
	return specs
}

// SWITCHSpecs returns the 31-scenario suite mirroring the SWITCH/IMC'09
// evaluation: unsampled traces, anomaly classes dominated by scans and
// floods, no stealthy cases (the IMC'09 labeled set was extractable in
// all 31 cases).
func SWITCHSpecs(seed uint64) []ScenarioSpec {
	const bins, anomalyBin = 18, 15
	rng := stats.NewRNG(seed)
	var specs []ScenarioSpec
	victim := func(i int) flow.IP { return flow.IPFromOctets(198, 19, byte(i), byte(rng.Intn(250))) }
	scanner := func(i int) flow.IP { return flow.IPFromOctets(10, 210, byte(i), byte(rng.Intn(250))) }

	for i := 0; i < 12; i++ {
		specs = append(specs, ScenarioSpec{Name: fmt.Sprintf("port-scan-%d", i),
			Placements: []gen.Placement{{Anomaly: gen.PortScan{
				Scanner: scanner(i), Victim: victim(i), SrcPort: uint16(40000 + rng.Intn(20000)),
				Ports: 1500 + rng.Intn(2500), FlowsPerPort: 1, Router: uint16(rng.Intn(2)),
			}, Bin: anomalyBin}}})
	}
	for i := 0; i < 8; i++ {
		specs = append(specs, ScenarioSpec{Name: fmt.Sprintf("net-scan-%d", i),
			Placements: []gen.Placement{{Anomaly: gen.NetworkScan{
				Scanner: scanner(20 + i), Prefix: flow.MustParsePrefix("198.19.64.0/18"),
				Hosts: 1500 + rng.Intn(2500), DstPort: []uint16{445, 22, 135, 23, 1433, 3389, 5900, 8080}[i],
				Router: uint16(rng.Intn(2)),
			}, Bin: anomalyBin}}})
	}
	for i := 0; i < 6; i++ {
		specs = append(specs, ScenarioSpec{Name: fmt.Sprintf("ddos-%d", i),
			Placements: []gen.Placement{{Anomaly: gen.SYNFlood{
				Victim: victim(40 + i), DstPort: 80, Sources: 600 + rng.Intn(600), FlowsPerSource: 3,
				SourceNet: flow.MustParsePrefix("172.16.0.0/12"), Router: uint16(rng.Intn(2)),
			}, Bin: anomalyBin}}})
	}
	for i := 0; i < 3; i++ {
		specs = append(specs, ScenarioSpec{Name: fmt.Sprintf("dos-%d", i),
			Placements: []gen.Placement{{Anomaly: gen.SYNFlood{
				Victim: victim(50 + i), DstPort: 80, Sources: 1, FlowsPerSource: 3000,
				SourceNet: flow.MustParsePrefix("172.20.0.0/16"), Router: uint16(rng.Intn(2)),
			}, Bin: anomalyBin}}})
	}
	for i := 0; i < 2; i++ {
		specs = append(specs, ScenarioSpec{Name: fmt.Sprintf("udp-flood-%d", i),
			Placements: []gen.Placement{{Anomaly: gen.UDPFlood{
				Src: scanner(60 + i), Dst: victim(60 + i), DstPort: uint16(1024 + rng.Intn(60000)),
				Flows: 3 + rng.Intn(4), PacketsPerFlow: 2_000_000, Router: uint16(rng.Intn(2)),
			}, Bin: anomalyBin}}})
	}
	for i := range specs {
		specs[i].Bins = bins
	}
	return specs
}

// runSuite evaluates every scenario of a suite on the matrix's path —
// generated into a fresh rootcause.System, alarm-sourced, extracted
// through the job manager with the default miner, scored against ground
// truth — and aggregates the result. A detection or extraction error
// aborts the run.
func runSuite(name string, specs []ScenarioSpec, cfg suiteConfig) (*SuiteResult, error) {
	workDir, cleanup, err := workDirOr(cfg.WorkDir)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	det := cfg.Detector
	if det == "" {
		det = SynthesizedSource
	}
	// One detector column and the default miner: each scenario is one cell.
	cellCfg := PipelineConfig{Detectors: []string{det}, Miners: []string{miner.DefaultName}}
	result := &SuiteResult{Name: name}
	for i, spec := range specs {
		dir := filepath.Join(workDir, fmt.Sprintf("scenario-%03d", i))
		cells, _, err := runScenario(spec.scenario(i, cfg), cellCfg, dir, spec.Name, spec.ExpectFail)
		if err == nil && cells[0].Error != "" {
			err = fmt.Errorf("extraction: %s", cells[0].Error)
		}
		if err == nil && cells[0].DetectorError != "" {
			err = fmt.Errorf("detector %s: %s", det, cells[0].DetectorError)
		}
		if err != nil {
			return nil, fmt.Errorf("eval: scenario %d (%s): %w", i, spec.Name, err)
		}
		result.Evals = append(result.Evals, cells[0])
	}
	return result, nil
}
