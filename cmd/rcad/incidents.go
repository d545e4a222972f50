package main

import (
	"net/http"

	rootcause "repro"
)

// handleCorrelate runs alarm dedup + temporal correlation over the
// stored alarms of a span and stores the resulting incidents. The body
// is optional and names only the span; correlation runs the incident
// layer's one policy, the same as the live watcher's. Correlation is
// idempotent — re-posting the same span returns the same incident IDs.
func (s *server) handleCorrelate(w http.ResponseWriter, r *http.Request) (any, error) {
	var body struct {
		From uint32 `json:"from"`
		To   uint32 `json:"to"`
	}
	if err := decodeBody(w, r, &body, true); err != nil {
		return nil, err
	}
	return s.sys.Correlate(r.Context(), bodySpan(body.From, body.To))
}

// handleIncidents lists stored incidents overlapping ?from&to (defaults
// to everything), every lifecycle status, in time order.
func (s *server) handleIncidents(_ http.ResponseWriter, r *http.Request) (any, error) {
	span, err := parseSpan(r)
	if err != nil {
		return nil, err
	}
	return map[string]any{"incidents": s.sys.Incidents(span)}, nil
}

// handleIncident returns one incident with its member alarms. The
// lead-lag chain rides inside the incident record; members are full
// alarm entries so the operator sees each alarm's workflow status.
func (s *server) handleIncident(_ http.ResponseWriter, r *http.Request) (any, error) {
	id := r.PathValue("id")
	entry, err := s.sys.Incident(id)
	if err != nil {
		return nil, err
	}
	members, err := s.sys.IncidentAlarms(id)
	return map[string]any{"incident": entry, "members": members}, err
}

// handleIncidentExtract submits the ONE extraction job of an incident
// (its members merged into a single mining run) and answers 202 with
// the queued job, exactly like POST /jobs.
func (s *server) handleIncidentExtract(w http.ResponseWriter, r *http.Request) (any, error) {
	id := r.PathValue("id")
	_, opts, err := decodeExtract(w, r, true)
	if err != nil {
		return nil, err
	}
	// Reject unknown incidents before queueing a job doomed to fail.
	if _, err := s.sys.Incident(id); err != nil {
		return nil, err
	}
	return s.submitAccepted(w, rootcause.JobRequest{IncidentID: id}, opts)
}
