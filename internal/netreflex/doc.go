// Package netreflex simulates the commercial anomaly detection system of
// the paper's GEANT deployment (NetReflex by Guavus). The paper describes
// it as a detector "based on a well-known anomaly detector [Lakhina'05]
// using Principal Component Analysis" that flags anomalies "on the basis
// of volume and IP features entropy variations" and "provides fine-grained
// meta-data often at the level of individual IPs and port numbers".
//
// Accordingly, this package wraps the PCA subspace detector
// (internal/pca) and adds the two behaviours the paper attributes to
// NetReflex:
//
//   - classification: each alarm is labeled port scan / network scan /
//     (D)DoS / UDP flood by inspecting the structure of the flows in the
//     flagged interval; and
//
//   - fine-grained but DELIBERATELY NARROW meta-data: only the single
//     dominant traffic signature is reported (e.g. one scanner's srcIP,
//     dstIP and srcPort). The paper's Table 1 and its 26-28% statistics
//     hinge on exactly this behaviour — a concurrent second scanner or
//     DDoS on the same target is NOT included in the meta-data, and it is
//     the frequent-itemset extraction step that recovers it.
//
// # Configuration
//
// The detector runs one configuration: the PCA detector as package pca
// configures it, and the classification thresholds below; a detector
// tuned differently is an external detector.Detector registered under
// its own name. Every threshold applies to the flagged bin, and a
// signature must also be dominant and a change to classify:
//
//   - scanPorts = 100: the distinct destination ports the dominant host
//     pair must touch for a port scan.
//   - scanHosts = 100: the distinct destination hosts one source must
//     touch (on a dominant port) for a network scan.
//   - ddosSources = 50: the distinct sources that must hit one
//     destination (on a dominant port) for a distributed DoS.
//   - floodPackets = 500,000: the packets the dominant host pair must
//     move for a point-to-point flood.
//   - dominantShare = 0.05: the share of the bin's flows a signature must
//     hold for its endpoints to be reported as meta-data.
//   - changeFactor = 5: how much a signature's volume must exceed its own
//     volume in the preceding bin. Popular background servers always have
//     many distinct clients; an anomaly is a change, so classification is
//     relative to the baseline bin.
package netreflex
