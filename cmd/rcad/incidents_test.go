package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// --- /api/v1 incident surface ---

// stormServer builds the standard test server and piles duplicate
// re-reports of its single alarm on top: 3 detectors x 3 jittered
// copies = 9 alarms total that must collapse into one incident.
func stormServer(t *testing.T) (*httptest.Server, *server, string) {
	t.Helper()
	srv, hs, id := newTestServerFull(t)
	entry, err := hs.sys.Alarm(id)
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range []string{"histogram", "netreflex", "pca"} {
		for _, jitter := range []uint32{0, 40, 80} {
			a := entry.Alarm
			a.ID = ""
			a.Detector = det
			a.Interval.Start += jitter
			hs.sys.FileAlarm(a)
		}
	}
	return srv, hs, id
}

func TestCorrelateAndIncidentEndpoints(t *testing.T) {
	srv, _, id := stormServer(t)

	// POST /api/v1/correlate with an empty body uses the defaults.
	var sum struct {
		AlarmsConsidered int      `json:"alarms_considered"`
		AlarmsKept       int      `json:"alarms_kept"`
		IncidentIDs      []string `json:"incident_ids"`
	}
	if code := postJSON(t, srv.URL+"/api/v1/correlate", "", &sum); code != http.StatusOK {
		t.Fatalf("correlate status %d", code)
	}
	if sum.AlarmsConsidered != 10 {
		t.Fatalf("considered %d alarms, want 10", sum.AlarmsConsidered)
	}
	if len(sum.IncidentIDs) != 1 {
		t.Fatalf("incidents = %v, want exactly one", sum.IncidentIDs)
	}
	incID := sum.IncidentIDs[0]

	// GET /api/v1/incidents lists it.
	var list struct {
		Incidents []struct {
			Incident struct {
				ID       string   `json:"id"`
				AlarmIDs []string `json:"alarm_ids"`
			} `json:"incident"`
			Status string `json:"status"`
		} `json:"incidents"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/incidents", &list); code != http.StatusOK {
		t.Fatalf("list status %d", code)
	}
	if len(list.Incidents) != 1 || list.Incidents[0].Incident.ID != incID {
		t.Fatalf("incident list = %+v", list)
	}
	if list.Incidents[0].Status != "open" {
		t.Fatalf("status = %q, want open", list.Incidents[0].Status)
	}
	if got := len(list.Incidents[0].Incident.AlarmIDs); got != 10 {
		t.Fatalf("incident holds %d alarms, want 10", got)
	}

	// GET /api/v1/incidents/{id} returns the record plus full member
	// entries.
	var detail struct {
		Incident struct {
			Incident struct {
				ID string `json:"id"`
			} `json:"incident"`
		} `json:"incident"`
		Members []struct {
			Alarm struct {
				ID string `json:"id"`
			} `json:"alarm"`
			Status string `json:"status"`
		} `json:"members"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/incidents/"+incID, &detail); code != http.StatusOK {
		t.Fatalf("detail status %d", code)
	}
	if detail.Incident.Incident.ID != incID || len(detail.Members) != 10 {
		t.Fatalf("detail = %+v", detail)
	}
	found := false
	for _, m := range detail.Members {
		if m.Alarm.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("original alarm %s not among members", id)
	}

	var errBody map[string]string
	if code := getJSON(t, srv.URL+"/api/v1/incidents/i404", &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown incident status %d", code)
	}
}

func TestIncidentExtractEndpoint(t *testing.T) {
	srv, _, id := stormServer(t)
	var sum struct {
		IncidentIDs []string `json:"incident_ids"`
	}
	postJSON(t, srv.URL+"/api/v1/correlate", "", &sum)
	if len(sum.IncidentIDs) != 1 {
		t.Fatalf("incidents = %v", sum.IncidentIDs)
	}
	incID := sum.IncidentIDs[0]

	// POST /api/v1/incidents/{id}/extract queues the ONE job.
	var env jobEnvelope
	if code := postJSON(t, srv.URL+"/api/v1/incidents/"+incID+"/extract", "", &env); code != http.StatusAccepted {
		t.Fatalf("extract status %d, want 202", code)
	}
	if env.Job.Kind != "extract-incident" {
		t.Fatalf("job kind = %q", env.Job.Kind)
	}
	pollJobState(t, srv.URL, env.Job.ID, "done")

	var res struct {
		Result extractResponse `json:"result"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/jobs/"+env.Job.ID+"/result", &res); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	if len(res.Result.Itemsets) == 0 {
		t.Fatal("no itemsets in incident extraction")
	}

	// The lifecycle advanced: incident extracted, members analyzed.
	var detail struct {
		Incident struct {
			Status string `json:"status"`
			Note   string `json:"note"`
		} `json:"incident"`
	}
	getJSON(t, srv.URL+"/api/v1/incidents/"+incID, &detail)
	if detail.Incident.Status != "extracted" {
		t.Fatalf("incident status = %q, want extracted", detail.Incident.Status)
	}
	var entry map[string]any
	getJSON(t, srv.URL+"/api/v1/alarms/"+id, &entry)
	if entry["status"] != "analyzed" {
		t.Fatalf("member alarm status = %v, want analyzed", entry["status"])
	}

	// Unknown incident: 404, no job queued.
	var errBody map[string]string
	if code := postJSON(t, srv.URL+"/api/v1/incidents/i404/extract", "", &errBody); code != http.StatusNotFound {
		t.Fatalf("unknown incident extract status %d", code)
	}

	// The generic job endpoint accepts incident_id too.
	var env2 jobEnvelope
	if code := postJSON(t, srv.URL+"/api/v1/jobs", `{"incident_id":"`+incID+`"}`, &env2); code != http.StatusAccepted {
		t.Fatalf("v1 jobs incident submit status %d", code)
	}
	if env2.Job.Kind != "extract-incident" {
		t.Fatalf("v1 jobs incident kind = %q", env2.Job.Kind)
	}
	pollJobState(t, srv.URL, env2.Job.ID, "done")
}

func TestHealthReportsIncidents(t *testing.T) {
	srv, _, _ := stormServer(t)
	var sum struct {
		IncidentIDs []string `json:"incident_ids"`
	}
	postJSON(t, srv.URL+"/api/v1/correlate", "", &sum)

	var body struct {
		Incidents map[string]int `json:"incidents"`
	}
	if code := getJSON(t, srv.URL+"/api/v1/health", &body); code != http.StatusOK {
		t.Fatalf("health status %d", code)
	}
	if body.Incidents["open"] != 1 {
		t.Fatalf("health incidents = %v, want open:1", body.Incidents)
	}
}
