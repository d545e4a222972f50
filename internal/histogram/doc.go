// Package histogram implements the histogram-based traffic anomaly
// detector of Kind, Stoecklin & Dimitropoulos ("Histogram-based traffic
// anomaly detection", IEEE TNSM 2009) — the detector the paper's first
// evaluation (SWITCH, unsampled traces, IMC'09) pairs with Apriori.
//
// Per measurement bin and per traffic feature the detector builds a
// histogram of the feature's value distribution over hashed bins, tracks
// an exponentially weighted reference histogram, and raises an alarm when
// the Kullback-Leibler distance between the current histogram and the
// reference exceeds an adaptive threshold (mean + k·stddev of the trailing
// KL series). Alarm meta-data comes from histogram bins contributing most
// to the divergence: the detector maps those bins back to the concrete
// feature values (addresses, ports) that dominate them, which is exactly
// the "initial, but possibly incomplete, meta-data" the extraction step
// starts from.
//
// # Configuration
//
// The detector runs one configuration, the one the evaluation uses; a
// detector tuned differently is an external detector.Detector
// registered under its own name. The values and why:
//
//   - features: the four entropy features (srcIP, dstIP, srcPort,
//     dstPort), the distributions Kind et al. and Lakhina et al. track.
//   - weighting: by flows. Each flow adds 1 to its value's bin, so scans
//     and SYN floods — many small flows — move the histograms.
//   - hashBins = 256: the histogram width; feature values are hashed
//     into this many buckets.
//   - trainBins = 12: one hour of 5-minute bins trains the reference and
//     the KL statistics; no alarm is raised inside this prefix.
//   - alpha = 0.2: the EWMA factor of the reference histogram update.
//   - kSigma = 3: the alarm threshold in standard deviations above the
//     trailing mean KL distance.
//   - topBins = 3, topValues = 3: the histogram bins contributing most
//     to the divergence that are drilled into for meta-data, and the
//     values reported per bin.
package histogram
