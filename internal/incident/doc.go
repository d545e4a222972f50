// Package incident is the layer between detection and extraction: it
// collapses alarm storms into incidents so the mining engine runs once
// per event instead of once per alarm.
//
// At production alert volume one event — a DDoS, a link outage — raises
// alarms across many measurement bins and detectors, and the bottleneck
// shifts from mining speed to alarm volume. Correlate runs three steps
// over one batch of stored alarms:
//
//	alarms ──▶ exact dedup (DedupKey) ──▶ TimeCluster ──▶ Incidents
//	                                          │
//	                                      LeadLag chain
//
// Dedup keys each alarm on (detector, kind, signature-ish meta fields,
// time bucket): the first alarm of a key survives and later alarms with
// the same key attach to it as duplicates, so repeated reports of one
// event collapse without dropping any member. Correlate then clusters
// the survivors by temporal proximity (alarms within clusterGap of each
// other join one Incident) and builds per-incident lead-lag chains from
// lag histograms over detector-kind pairs ("port scan leads ddos by ~1
// bin, confidence 0.9").
//
// ExtractionAlarm merges an incident's member alarms into the single
// alarm its one extraction job runs on: the representative member's
// identity, the union of member intervals, and the union of member
// meta-data — so a composite event (the catalog's portscan-ddos bin)
// is mined once and both causes surface in one ranked list.
//
// Correlation runs one fixed policy (dedup window, cluster gap, lead-lag
// confidence floor are package constants), so every pass over the same
// alarms agrees. Everything is deterministic: correlation sorts its
// input and dedups by exact key, so the same alarms always produce the
// same incidents (the contract the correlator tests pin).
package incident
