package rootcause

import "context"

// WithExtractFunc substitutes the extraction engine for one call — a
// test-only seam used to assert the batch job's fan-out (width bound,
// cancellation) without running real mining.
func WithExtractFunc(fn func(ctx context.Context, a *Alarm) (*Result, error)) Option {
	return func(o *callOptions) { o.extractFn = fn }
}

// IncidentExtractionAlarm returns the single merged alarm an incident's
// extraction runs on: the representative member's identity, the union
// of member intervals, and the deduplicated union of member meta-data.
// Extracting this alarm synchronously (ExtractAlarm) produces exactly
// the result ExtractIncident records — the parity the tests pin. A
// merged incident has no extraction of its own and fails like
// ExtractIncident does.
func (s *System) IncidentExtractionAlarm(id string) (Alarm, error) {
	a, err := s.incidentTarget(id).alarm()
	if err != nil {
		return Alarm{}, err
	}
	return *a, nil
}
