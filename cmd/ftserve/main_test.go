package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ftla"
	"ftla/internal/service"
)

// newTestServer serves a fresh scheduler over the production mux.
func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := &server{
		sched: service.New(service.Config{Workers: 1}),
		jobs:  make(map[uint64]*service.JobHandle),
	}
	ts := httptest.NewServer(srv.mux(false))
	t.Cleanup(func() {
		ts.Close()
		srv.sched.Close()
	})
	return ts
}

// do sends one request and returns the status code and body.
func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// submit posts a job and returns its id.
func submit(t *testing.T, ts *httptest.Server, body string) uint64 {
	t.Helper()
	code, out := do(t, http.MethodPost, ts.URL+"/v1/jobs", body)
	if code != http.StatusAccepted {
		t.Fatalf("submit %s: %d %s", body, code, out)
	}
	var st jobStatus
	if err := json.Unmarshal([]byte(out), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "pending" {
		t.Fatalf("submit answered state %q, want pending", st.State)
	}
	return st.ID
}

// await polls url until the job leaves the pending state.
func await(t *testing.T, url string) jobStatus {
	t.Helper()
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		code, out := do(t, http.MethodGet, url, "")
		if code != http.StatusOK {
			t.Fatalf("poll %s: %d %s", url, code, out)
		}
		var st jobStatus
		if err := json.Unmarshal([]byte(out), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != "pending" {
			return st
		}
	}
	t.Fatalf("poll %s: job still pending after 30s", url)
	return jobStatus{}
}

func TestSubmitAndPoll(t *testing.T) {
	ts := newTestServer(t)
	id := submit(t, ts, `{"decomp":"lu","n":64,"seed":3,"rhs_seed":1,"gpus":2,"nb":32}`)
	for _, url := range []string{
		fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id),
		fmt.Sprintf("%s/v1/jobs?id=%d", ts.URL, id),
	} {
		st := await(t, url)
		if st.ID != id || st.State != "done" || st.Error != "" {
			t.Fatalf("poll %s = %+v, want job %d done", url, st, id)
		}
		if len(st.X) != 64 {
			t.Fatalf("poll %s: x has %d entries, want 64", url, len(st.X))
		}
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	ts := newTestServer(t)
	for _, tc := range []struct{ name, body, msg string }{
		{"bad JSON", `{"decomp":`, "bad JSON"},
		{"unknown decomp", `{"decomp":"svd","n":64}`, "unknown decomp"},
		{"unknown protection", `{"n":64,"protection":"triple"}`, "unknown protection"},
		{"order not a multiple of NB", `{"n":100,"nb":64}`, "multiple"},
		{"GPUs not divisible over nodes", `{"n":64,"nb":32,"gpus":3,"nodes":2}`, "not divisible over 2 nodes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, out := do(t, http.MethodPost, ts.URL+"/v1/jobs", tc.body)
			if code != http.StatusBadRequest || !strings.Contains(out, tc.msg) {
				t.Fatalf("got %d %s, want 400 mentioning %q", code, out, tc.msg)
			}
		})
	}
}

// The "protection" field selects the configuration on the Config the
// request builds, keeping its GPUs, NB and topology: "none" is the
// NoProtection/NoCheck pair a run accepts, not the default protection.
func TestRequestProtection(t *testing.T) {
	for _, tc := range []struct {
		protection string
		mode       ftla.Protection
		scheme     ftla.Scheme
	}{
		{"", ftla.FullChecksum, ftla.NewScheme},
		{"full", ftla.FullChecksum, ftla.NewScheme},
		{"single", ftla.SingleSide, ftla.NewScheme},
		{"none", ftla.NoProtection, ftla.NoCheck},
	} {
		t.Run(tc.protection, func(t *testing.T) {
			r := jobRequest{N: 64, NB: 32, GPUs: 4, Nodes: 2, Protection: tc.protection}
			spec, err := r.toSpec()
			if err != nil {
				t.Fatal(err)
			}
			c := spec.Config
			if c.Protection != tc.mode || c.Scheme != tc.scheme || c.GPUs != 4 || c.NB != 32 || c.Nodes != 2 {
				t.Fatalf("config %v/%v GPUs %d NB %d Nodes %d, want %v/%v GPUs 4 NB 32 Nodes 2",
					c.Protection, c.Scheme, c.GPUs, c.NB, c.Nodes, tc.mode, tc.scheme)
			}
			if err := c.Validate(64); err != nil {
				t.Fatalf("Validate = %v", err)
			}
		})
	}
}

func TestUnknownJob(t *testing.T) {
	ts := newTestServer(t)
	for _, url := range []string{"/v1/jobs/42", "/v1/jobs?id=42", "/trace?id=42"} {
		if code, out := do(t, http.MethodGet, ts.URL+url, ""); code != http.StatusNotFound {
			t.Fatalf("GET %s: %d %s, want 404", url, code, out)
		}
	}
}

func TestTrace(t *testing.T) {
	ts := newTestServer(t)
	plain := submit(t, ts, `{"n":64,"seed":1,"nb":32}`)
	traced := submit(t, ts, `{"n":64,"seed":2,"nb":32,"trace":true}`)
	for _, id := range []uint64{plain, traced} {
		if st := await(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id)); st.State != "done" {
			t.Fatalf("job %d: %+v", id, st)
		}
	}
	if code, out := do(t, http.MethodGet, fmt.Sprintf("%s/trace?id=%d", ts.URL, plain), ""); code != http.StatusNotFound {
		t.Fatalf("untraced job: %d %s, want 404", code, out)
	}
	code, out := do(t, http.MethodGet, fmt.Sprintf("%s/trace?id=%d", ts.URL, traced), "")
	if code != http.StatusOK {
		t.Fatalf("traced job: %d %s", code, out)
	}
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(out), &chrome); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
}

func TestHealthAndMetrics(t *testing.T) {
	ts := newTestServer(t)
	if code, out := do(t, http.MethodGet, ts.URL+"/healthz", ""); code != http.StatusOK || strings.TrimSpace(out) != "ok" {
		t.Fatalf("/healthz: %d %q", code, out)
	}
	if code, out := do(t, http.MethodGet, ts.URL+"/metrics", ""); code != http.StatusOK || !strings.Contains(out, service.MetricJobsSubmitted) {
		t.Fatalf("/metrics: %d, missing %s", code, service.MetricJobsSubmitted)
	}
	code, out := do(t, http.MethodGet, ts.URL+"/metrics?format=json", "")
	if code != http.StatusOK {
		t.Fatalf("/metrics?format=json: %d %s", code, out)
	}
	var regs map[string]json.RawMessage
	if err := json.Unmarshal([]byte(out), &regs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"process", "scheduler"} {
		if _, ok := regs[name]; !ok {
			t.Fatalf("/metrics?format=json has no %q registry", name)
		}
	}
}
