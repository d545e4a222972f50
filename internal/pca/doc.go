// Package pca implements the PCA subspace anomaly detector of Lakhina,
// Crovella & Diot ("Mining anomalies using traffic feature distributions",
// SIGCOMM 2005) — the published method underlying NetReflex, the
// commercial detector of the paper's GEANT deployment, which the paper
// describes as detecting "on the basis of volume and IP features entropy
// variations [4]".
//
// Per measurement bin and per ingress point-of-presence the detector
// computes the normalized entropy of the four traffic feature
// distributions plus flow- and packet-volume counters, assembling the
// bins × (PoPs·channels) measurement matrix. PCA on the standardized
// matrix splits the space into a principal (normal) subspace and a
// residual subspace; a bin whose squared prediction error in the residual
// subspace exceeds the Jackson-Mudholkar Q-statistic threshold is flagged,
// and the columns dominating the residual identify the PoP and traffic
// feature involved. Meta-data then comes from drilling into the store:
// the concrete feature values whose share of traffic grew most against
// the preceding clean bin.
//
// # Configuration
//
// The detector runs one configuration, the one the evaluation and
// NetReflex use; a detector tuned differently is an external
// detector.Detector registered under its own name. The values and why:
//
//   - features: the four Lakhina entropy features per PoP, flow-weighted
//     like the histogram detector's.
//   - volume channels on: flow-count and packet-count channels per PoP,
//     as in volume-PCA. Without them entropy-neutral anomalies
//     (point-to-point floods) are invisible; with them NetReflex-style
//     detection of both classes works.
//   - PoP count: discovered from the data (largest Router index + 1).
//   - varianceFraction = 0.92: the principal subspace is the smallest p
//     whose components capture at least this fraction of the variance.
//   - maxComponents = 10: caps p.
//   - alpha = 0.001: the Q-statistic false-alarm rate.
//   - qMargin = 2: multiplies the Q threshold before alarming. The
//     Jackson-Mudholkar threshold assumes Gaussian residuals; SPE under
//     the trimmed robust fit is heavier-tailed, and real anomalies exceed
//     Q by orders of magnitude, so a small margin suppresses borderline
//     statistical false alarms at no recall cost.
//   - minBins = 8: the fewest measurement bins the subspace is fitted on.
//   - trimFraction = 0.1: the fraction of the most extreme bins left out
//     of the subspace fit. A single strongly anomalous bin can otherwise
//     rotate the principal subspace toward itself and hide from the
//     residual — the contamination problem documented for subspace
//     detectors (Ringberg et al., SIGMETRICS'07). Trimmed bins are still
//     scored against the clean model.
//   - topColumns = 4, topValues = 3: the residual-dominating columns
//     attributed per alarm, and the concrete values reported per
//     attributed column.
//   - minMetaGain = 0.1, minMetaShare = 0.3: the traffic-share gain a
//     value must show to be reported from an entropy column, and the
//     share a top endpoint must hold to be reported from a volume column.
//     Both are conservative: detectors report few, high-confidence meta
//     items and leave completing the picture to the extraction step —
//     the division of labour the paper describes.
package pca
