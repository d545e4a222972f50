package rootcause

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/alarmdb"
	"repro/internal/incident"
)

// Incident-layer re-exports: the correlation vocabulary without internal
// package paths.
type (
	// Incident is one correlated event — the alarms a single root cause
	// raised across bins and detectors.
	Incident = incident.Incident
	// IncidentLink is one lead-lag edge ("port scan leads ddos by ~300s").
	IncidentLink = incident.Link
	// IncidentEntry is a stored incident with its lifecycle status.
	IncidentEntry = alarmdb.IncidentEntry
	// IncidentStatus is an incident lifecycle state.
	IncidentStatus = alarmdb.IncidentStatus
)

// Incident lifecycle states: open → extracted, or open → merged when a
// later correlation pass absorbs the incident into a larger one.
const (
	IncidentOpen      = alarmdb.IncidentOpen
	IncidentMerged    = alarmdb.IncidentMerged
	IncidentExtracted = alarmdb.IncidentExtracted
)

// JobKindExtractIncident is the job kind of a per-incident extraction.
const JobKindExtractIncident = "extract-incident"

// CorrelationSummary reports one Correlate run.
type CorrelationSummary struct {
	// AlarmsConsidered counts the stored alarms fed to the correlator
	// (the storm size).
	AlarmsConsidered int `json:"alarms_considered"`
	// AlarmsKept counts the alarms surviving dedup.
	AlarmsKept int `json:"alarms_kept"`
	// IncidentIDs are the stored incidents, in time order. Re-correlating
	// the same span returns the same IDs — reconciliation is idempotent.
	IncidentIDs []string `json:"incident_ids"`
}

// Correlate collapses the stored alarms of a span into incidents:
// exact dedup, temporal clustering, and per-incident lead-lag
// chains (see the incident package). Rejected alarms are excluded —
// an operator's false-positive verdict silences the event. The
// resulting incidents are reconciled into the alarm database: an
// incident with a previously stored member set keeps its ID and
// lifecycle status, new ones open fresh, and open incidents absorbed
// by a larger correlation are marked merged. Every pass — this one and
// the live watcher's — runs the incident package's one policy, so a
// manual pass never re-keys what the watcher has already submitted.
func (s *System) Correlate(ctx context.Context, span Interval) (*CorrelationSummary, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	entries := s.alarms.Query(span, "")
	alarms := make([]Alarm, 0, len(entries))
	for _, e := range entries {
		if e.Status == alarmdb.StatusRejected {
			continue
		}
		alarms = append(alarms, e.Alarm)
	}
	corr := incident.Correlate(alarms)
	ids := s.alarms.ReconcileIncidents(corr.Incidents)
	return &CorrelationSummary{
		AlarmsConsidered: corr.AlarmsIn,
		AlarmsKept:       corr.Survivors,
		IncidentIDs:      ids,
	}, nil
}

// Incidents returns the stored incidents overlapping iv (zero interval
// = all), every lifecycle status, in time order.
func (s *System) Incidents(iv Interval) []IncidentEntry {
	return s.alarms.Incidents(iv, "")
}

// Incident returns one stored incident by ID ("i1", "i2", …).
func (s *System) Incident(id string) (IncidentEntry, error) {
	return s.alarms.Incident(id)
}

// IncidentCounts reports how many stored incidents sit in each
// lifecycle status (the health-endpoint summary).
func (s *System) IncidentCounts() map[IncidentStatus]int {
	return s.alarms.IncidentCounts()
}

// IncidentAlarms returns an incident's member alarms (dedup survivors
// first, then the duplicates they suppressed).
func (s *System) IncidentAlarms(id string) ([]AlarmEntry, error) {
	e, err := s.alarms.Incident(id)
	if err != nil {
		return nil, err
	}
	out := make([]AlarmEntry, 0, len(e.Incident.AlarmIDs))
	for _, aid := range e.Incident.AlarmIDs {
		ae, err := s.alarms.Get(aid)
		if err != nil {
			return nil, fmt.Errorf("incident %s member: %w", id, err)
		}
		out = append(out, ae)
	}
	return out, nil
}

// ExtractIncident runs the one extraction of a correlated incident: the
// member alarms are merged into a single alarm (see
// incident.ExtractionAlarm) and mined once, so a composite event — recon
// plus attack — surfaces all its causes in one ranked list. On success
// the incident is marked extracted and its still-new member alarms
// analyzed; operator verdicts on members are left untouched. The same
// per-call options as Extract apply.
func (s *System) ExtractIncident(ctx context.Context, id string, opts ...Option) (*Result, error) {
	return s.extract(ctx, s.incidentTarget(id), opts)
}

// incidentTarget extracts a correlated incident: alarm merges the
// members into the one alarm to mine, done records the outcome on the
// incident and on the members that alarm call loaded.
func (s *System) incidentTarget(id string) target {
	var members []AlarmEntry
	return target{
		alarm: func() (*Alarm, error) {
			e, err := s.alarms.Incident(id)
			if err != nil {
				return nil, err
			}
			if e.Status == alarmdb.IncidentMerged {
				return nil, fmt.Errorf("rootcause: incident %s was merged (%s); extract the absorbing incident", id, e.Note)
			}
			if members, err = s.IncidentAlarms(id); err != nil {
				return nil, err
			}
			alarms := make([]Alarm, len(members))
			for i, m := range members {
				alarms[i] = m.Alarm
			}
			merged, err := incident.ExtractionAlarm(&e.Incident, alarms)
			if err != nil {
				return nil, err
			}
			return &merged, nil
		},
		done: func(res *Result) error {
			for _, m := range members {
				if m.Status != alarmdb.StatusNew {
					continue
				}
				if err := s.alarms.SetStatus(m.Alarm.ID, alarmdb.StatusAnalyzed, "via incident "+id); err != nil {
					return err
				}
			}
			note := fmt.Sprintf("%d itemsets", len(res.Itemsets))
			return s.alarms.SetIncidentStatus(id, alarmdb.IncidentExtracted, note)
		},
	}
}

// errNoJobTarget rejects a JobRequest that names no or several targets.
var errNoJobTarget = errors.New("rootcause: JobRequest needs exactly one of AlarmID, AlarmIDs or IncidentID")
