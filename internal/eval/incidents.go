package eval

import (
	"context"
	"fmt"
	"time"

	rootcause "repro"
	"repro/internal/detector"
	"repro/internal/gen"
)

// stormJitters are the per-duplicate start offsets of the synthesized
// alarm storm, all within half a dedup window so the copies share one
// dedup bucket (catalog scenarios start bin-aligned).
var stormJitters = [...]uint32{0, 40, 80, 120}

// IncidentScore is the incident-mode outcome of one scenario: the
// synthesized alarm storm, its correlation, and the joint ground-truth
// score of the per-incident extractions.
type IncidentScore struct {
	Scenario   string `json:"scenario"`
	Composite  bool   `json:"composite,omitempty"`
	ExpectFail bool   `json:"expect_fail,omitempty"`
	// AlarmsIn is the synthesized storm size; AlarmsKept the dedup
	// survivors; Incidents the correlated event count. Reduction is
	// AlarmsIn/Incidents — the volume collapse the layer exists for.
	AlarmsIn   int     `json:"alarms_in"`
	AlarmsKept int     `json:"alarms_kept"`
	Incidents  int     `json:"incidents"`
	Reduction  float64 `json:"reduction,omitempty"`
	// Jobs counts extraction jobs submitted — exactly one per incident.
	Jobs int `json:"jobs"`
	// Precision/Recall/WorstRank score ALL per-incident extractions
	// jointly against ALL truth entries: recall 1 means every injected
	// anomaly was attributed by some incident's extraction, WorstRank is
	// the deepest rank any attributed cause needed (0 = some cause
	// missed).
	Precision float64 `json:"precision"`
	Recall    float64 `json:"recall"`
	WorstRank int     `json:"worst_rank"`
	// ChainOK reports (composite scenarios only) that one incident
	// covered every phase and its lead-lag chain ordered the first truth
	// entry's kind before the second's.
	ChainOK bool `json:"chain_ok,omitempty"`
	// Pass is the verdict: expect-fail scenarios must attribute nothing;
	// composites must recover every cause top-3 from one incident with
	// the chain in order; single-anomaly scenarios must attribute their
	// cause.
	Pass   bool    `json:"pass"`
	WallMS float64 `json:"wall_ms"`
	Error  string  `json:"error,omitempty"`
}

// runScenarioIncidents evaluates the incident layer for one scenario: a
// deterministic alarm storm (every registered detector re-reporting
// every truth entry stormJitters times) is correlated and each incident
// extracted through one job, then the combined ranked lists are scored
// jointly against the full ground truth.
func runScenarioIncidents(name string, expectFail bool, sys *rootcause.System, truth *gen.Truth) IncidentScore {
	t0 := time.Now()
	ctx := context.Background()
	score := IncidentScore{Scenario: name, Composite: truth.Composite, ExpectFail: expectFail}
	fail := func(err error) IncidentScore {
		score.Error = err.Error()
		score.WallMS = float64(time.Since(t0).Microseconds()) / 1000
		return score
	}

	// Synthesize the storm.
	detectors := detector.Names()
	for i := range truth.Entries {
		base := SynthesizeAlarm(&truth.Entries[i])
		for _, det := range detectors {
			for _, jitter := range stormJitters {
				a := base
				a.Detector = det
				a.Interval.Start += jitter
				sys.FileAlarm(a)
				score.AlarmsIn++
			}
		}
	}

	sum, err := sys.Correlate(ctx, truth.Span)
	if err != nil {
		return fail(err)
	}
	score.AlarmsKept = sum.AlarmsKept
	score.Incidents = len(sum.IncidentIDs)
	if score.Incidents > 0 {
		score.Reduction = float64(score.AlarmsIn) / float64(score.Incidents)
	}

	// One extraction job per incident, via the job manager.
	attributed := make([]int, len(truth.Entries)) // best rank per entry, 0 = missed
	var reported, correct int
	chainOK := false
	for _, id := range sum.IncidentIDs {
		entry, err := sys.Incident(id)
		if err != nil {
			return fail(err)
		}
		jobID, err := sys.Submit(rootcause.JobRequest{IncidentID: id}, rootcause.WithTransientJob())
		if err != nil {
			return fail(err)
		}
		score.Jobs++
		jr, err := sys.Wait(ctx, jobID)
		if err != nil {
			return fail(err)
		}
		ts, err := ScoreTruth(sys.Store(), entry.Incident.Interval, jr.Result, truth, DefaultScoreOptions())
		if err != nil {
			return fail(err)
		}
		reported += ts.ReportedItemsets
		correct += ts.CorrectItemsets
		for i, e := range ts.Entries {
			if e.Attributed && (attributed[i] == 0 || e.Rank < attributed[i]) {
				attributed[i] = e.Rank
			}
		}
		if truth.Composite && len(truth.Entries) >= 2 &&
			entry.Incident.Leads(truth.Entries[0].Kind, truth.Entries[1].Kind) {
			chainOK = true
		}
	}

	// Joint score over all incidents.
	if reported > 0 {
		score.Precision = float64(correct) / float64(reported)
	}
	recovered := 0
	for _, rank := range attributed {
		if rank > 0 {
			recovered++
			if rank > score.WorstRank {
				score.WorstRank = rank
			}
		}
	}
	if recovered < len(truth.Entries) {
		score.WorstRank = 0 // some cause was missed entirely
	}
	if len(truth.Entries) > 0 {
		score.Recall = float64(recovered) / float64(len(truth.Entries))
	}
	score.ChainOK = chainOK

	switch {
	case expectFail:
		// A stealthy or quiet scenario must not produce attributed causes.
		score.Pass = correct == 0
	case truth.Composite:
		// The composite event: one incident, every cause in the top 3,
		// phases ordered by the chain.
		score.Pass = score.Incidents == 1 && score.Recall == 1 &&
			score.WorstRank >= 1 && score.WorstRank <= 3 && chainOK
	default:
		score.Pass = score.Recall == 1 && score.WorstRank >= 1
	}
	score.WallMS = float64(time.Since(t0).Microseconds()) / 1000
	return score
}

// incidentTotalsLine summarizes the incident column for the Markdown
// report header.
func incidentTotalsLine(scores []IncidentScore) string {
	if len(scores) == 0 {
		return ""
	}
	pass, alarms, incidents := 0, 0, 0
	for _, s := range scores {
		if s.Pass {
			pass++
		}
		alarms += s.AlarmsIn
		incidents += s.Incidents
	}
	red := 0.0
	if incidents > 0 {
		red = float64(alarms) / float64(incidents)
	}
	return fmt.Sprintf("%d/%d scenarios pass · %d alarms → %d incidents (%.1fx reduction)",
		pass, len(scores), alarms, incidents, red)
}
