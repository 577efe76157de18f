package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
	"repro/internal/stats"
)

// The tests in this file pin the daemon's JSON against literal text. Every
// other test decodes through the same Go types that encode, so a renamed,
// retagged or reordered field would pass them all and still break every
// client in the field.

// TestWireStateJSON marshals a JobState and a CertState with every field
// set, and with every omitempty field empty.
func TestWireStateJSON(t *testing.T) {
	cases := []struct {
		name string
		v    any
		want string
	}{
		{"JobState full", JobState{
			ID: "k1", Scenario: "ring/a-lead/fifo", Seed: -3, Status: StatusRunning, Cached: true, Deduped: 2,
			Progress: &scenario.Snapshot{Done: 5, Total: 9, Failures: 1, Messages: 40, MaxWinLeader: 3,
				MaxWin: stats.RateSnapshot{Wins: 2, Trials: 5, Rate: 0.4, Lo: 0.1, Hi: 0.75}, Epsilon: 0.25},
			Error: "boom", Result: json.RawMessage(`{"x":1}`),
		}, `{"id":"k1","scenario":"ring/a-lead/fifo","seed":-3,"status":"running","cached":true,"deduped":2,` +
			`"progress":{"done":5,"total":9,"failures":1,"messages":40,"max_win_leader":3,` +
			`"max_win":{"wins":2,"trials":5,"rate":0.4,"lo":0.1,"hi":0.75},"epsilon":0.25},` +
			`"error":"boom","result":{"x":1}}`},
		{"JobState empty", JobState{ID: "k2", Scenario: "s", Status: StatusQueued},
			`{"id":"k2","scenario":"s","seed":0,"status":"queued"}`},
		{"CertState full", CertState{
			ID: "c1", Scenario: "ring/basic-lead/fifo", Seed: 11, Status: StatusDone, Cached: true, Deduped: 1,
			Progress: &equilibrium.Progress{Scenario: "ring/basic-lead/fifo", Index: 2, Total: 3,
				Candidate: scenario.DeviationCandidate{Family: "rushing", K: 2, Mode: "equal", Target: 4},
				Trials:    300, Gain: 0.125, BestGain: 0.5},
			Error: "e", Result: json.RawMessage(`{"verdict":"x"}`),
		}, `{"id":"c1","scenario":"ring/basic-lead/fifo","seed":11,"status":"done","cached":true,"deduped":1,` +
			`"progress":{"scenario":"ring/basic-lead/fifo","index":2,"total":3,` +
			`"candidate":{"family":"rushing","k":2,"mode":"equal","target":4},"trials":300,"gain":0.125,"best_gain":0.5},` +
			`"error":"e","result":{"verdict":"x"}}`},
		{"CertState empty", CertState{ID: "c2", Scenario: "s", Seed: 1, Status: StatusCanceled},
			`{"id":"c2","scenario":"s","seed":1,"status":"canceled"}`},
	}
	for _, tc := range cases {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestWireHTTPBodies pins the POST /jobs and POST /certify envelopes, the
// plain GET state, and the 400, 404 and 409 error bodies of both surfaces.
// A first daemon computes one job and one certificate; a second daemon over
// the same cache directory then answers both from disk, so every field of
// every body is fixed. The expected ids and results come from the registry
// and the certifier directly, not from the service.
func TestWireHTTPBodies(t *testing.T) {
	const version = "wire-pin"
	dir := t.TempDir()
	ctx := context.Background()
	_, warm := newTestServer(t, Config{Version: version, CacheDir: dir})
	jobs, err := warm.Submit(ctx, []JobRequest{quickJob})
	if err != nil {
		t.Fatal(err)
	}
	certs, err := warm.SubmitCerts(ctx, []CertRequest{quickCert})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := warm.Wait(ctx, jobs[0].ID); err != nil || st.Status != StatusDone {
		t.Fatalf("warm job: %v %+v", err, st)
	}
	if st, err := warm.WaitCert(ctx, certs[0].ID); err != nil || st.Status != StatusDone {
		t.Fatalf("warm certificate: %v %+v", err, st)
	}

	sc := scenario.MustFind(quickJob.Scenario)
	jobID := sc.JobKey(version, quickJob.Seed, scenario.Opts{N: quickJob.N, Trials: quickJob.Trials})
	out, err := sc.RunOpts(ctx, quickJob.Seed, scenario.Opts{N: quickJob.N, Trials: quickJob.Trials})
	if err != nil {
		t.Fatal(err)
	}
	jobResult, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	csc := scenario.MustFind(quickCert.Scenario)
	certOpts := equilibrium.Options{N: quickCert.N, Trials: quickCert.Trials, Version: version}
	certID := equilibrium.Key(csc, quickCert.Seed, certOpts)
	cert, err := equilibrium.Certify(ctx, csc, quickCert.Seed, certOpts)
	if err != nil {
		t.Fatal(err)
	}
	certResult, err := json.Marshal(cert)
	if err != nil {
		t.Fatal(err)
	}

	_, cold := newTestServer(t, Config{Version: version, CacheDir: dir})
	base := cold.BaseURL()
	jobState := `{"id":"` + jobID + `","scenario":"ring/basic-lead/fifo","seed":5,"status":"done","cached":true,` +
		`"result":` + string(jobResult) + `}`
	certState := `{"id":"` + certID + `","scenario":"ring/basic-lead/fifo","seed":11,"status":"done","cached":true,` +
		`"result":` + string(certResult) + `}`
	cases := []struct {
		method, path, body string
		code               int
		want               string
	}{
		{"POST", "/jobs", `{"jobs":[{"scenario":"ring/basic-lead/fifo","n":8,"trials":120,"seed":5}]}`,
			http.StatusAccepted, `{"jobs":[` + jobState + `]}`},
		{"GET", "/jobs/" + jobID, "", http.StatusOK, jobState},
		{"DELETE", "/jobs/" + jobID, "", http.StatusConflict, `{"error":"job is already done"}`},
		{"GET", "/jobs/nope", "", http.StatusNotFound, `{"error":"no such job"}`},
		{"DELETE", "/jobs/nope", "", http.StatusNotFound, `{"error":"no such job"}`},
		{"POST", "/jobs", `{"jobs":[]}`, http.StatusBadRequest, `{"error":"service: empty batch"}`},
		{"POST", "/jobs", `{"jobs":[{"scenario":"nope","seed":1}]}`, http.StatusBadRequest,
			`{"error":"service: job 0: no registered scenario \"nope\""}`},

		{"POST", "/certify", `{"certs":[{"scenario":"ring/basic-lead/fifo","n":8,"trials":300,"seed":11}]}`,
			http.StatusAccepted, `{"certs":[` + certState + `]}`},
		{"GET", "/certify/" + certID, "", http.StatusOK, certState},
		{"DELETE", "/certify/" + certID, "", http.StatusConflict, `{"error":"certification job is already done"}`},
		{"GET", "/certify/nope", "", http.StatusNotFound, `{"error":"no such certification job"}`},
		{"DELETE", "/certify/nope", "", http.StatusNotFound, `{"error":"no such certification job"}`},
		{"POST", "/certify", `{"certs":[]}`, http.StatusBadRequest, `{"error":"service: empty certification batch"}`},
		{"POST", "/certify", `{"certs":[{"scenario":"nope","seed":1}]}`, http.StatusBadRequest,
			`{"error":"service: cert 0: no registered scenario \"nope\""}`},
	}
	for _, tc := range cases {
		var body io.Reader
		if tc.body != "" {
			body = strings.NewReader(tc.body)
		}
		req, err := http.NewRequestWithContext(ctx, tc.method, base+tc.path, body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != tc.code || string(got) != tc.want+"\n" {
			t.Errorf("%s %s:\n got %d %s\nwant %d %s", tc.method, tc.path, resp.StatusCode, got, tc.code, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: Content-Type %q", tc.method, tc.path, ct)
		}
	}
}
