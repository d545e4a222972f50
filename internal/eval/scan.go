package eval

import (
	"math/rand"

	"repro/internal/flow"
	"repro/internal/nfstore"
)

// The scan workload of bench/ (scan-clustered, scan-uniform and
// scan-sharded fill their stores and take their filter from here).

// ScanFilter is the selective two-column filter the root-cause loop
// issues and every scan workload runs.
const ScanFilter = "proto udp and dst port 53"

// FillScanStore populates s with the benchmark trace: a background mix
// across bins 300-second bins with ~4% UDP:53 traffic. clustered=true
// keeps UDP:53 out of the background and injects the same volume of
// matches as a single burst in the third bin instead, so only a couple
// of blocks contain matching rows. Routers draw from 64 values so the
// hash-partitioned shard benchmark balances at any shard count.
func FillScanStore(s nfstore.Engine, clustered bool, records, bins int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	span := bins * 300
	protos := []flow.Protocol{flow.ProtoTCP, flow.ProtoUDP, flow.ProtoICMP, 47}
	ports := []uint16{22, 53, 80, 443, 8080}
	bgPorts := []uint16{22, 80, 443, 8080}
	n := records
	if clustered {
		n = records * 96 / 100
	}
	for i := 0; i < n; i++ {
		dst := ports[rng.Intn(len(ports))]
		if rng.Intn(6) == 0 {
			dst = uint16(rng.Intn(65536))
		}
		r := flow.Record{
			Start:   uint32(rng.Intn(span)),
			Dur:     uint32(rng.Intn(10_000)),
			SrcIP:   flow.IPFromOctets(10, 0, byte(rng.Intn(4)), byte(rng.Intn(40))),
			DstIP:   flow.IPFromOctets(192, 0, 2, byte(rng.Intn(40))),
			SrcPort: ports[rng.Intn(len(ports))],
			DstPort: dst,
			Proto:   protos[rng.Intn(len(protos))],
			Router:  uint16(rng.Intn(64)),
			Packets: uint64(1 + rng.Intn(1000)),
		}
		r.Bytes = r.Packets * uint64(40+rng.Intn(1400))
		if clustered && r.Proto == flow.ProtoUDP && r.DstPort == 53 {
			r.DstPort = bgPorts[rng.Intn(len(bgPorts))]
		}
		if err := s.Add(&r); err != nil {
			return err
		}
	}
	if clustered {
		for i := 0; i < records-n; i++ {
			r := flow.Record{
				Start:   2*300 + uint32(rng.Intn(40)),
				SrcIP:   flow.IPFromOctets(10, 0, 3, byte(rng.Intn(200))),
				DstIP:   flow.IPFromOctets(192, 0, 2, 7),
				SrcPort: uint16(1024 + rng.Intn(60000)),
				DstPort: 53,
				Proto:   flow.ProtoUDP,
				Router:  uint16(rng.Intn(64)),
				Packets: uint64(1 + rng.Intn(10)),
			}
			r.Bytes = r.Packets * 120
			if err := s.Add(&r); err != nil {
				return err
			}
		}
	}
	return s.Flush()
}
