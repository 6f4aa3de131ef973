package server_test

import (
	"bufio"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestWireVocabulary pins the names every metrics view exposes: the key
// set of JSON /metrics, every (name, TYPE) pair of the Prometheus
// exposition, the key set of one /v1/stats/history sample and the JSON
// key set of /v1/tenants/{id}/usage. A tenant-attributed request and one
// finished job run first, so the labeled tenant series, the per-route and
// per-stage histograms and the job latency histograms are all present.
// Renaming, dropping or adding a series changes these sets; the lists
// below change only together with the wire contract.
func TestWireVocabulary(t *testing.T) {
	ts := newTestServer(t, server.Config{HistoryInterval: 10 * time.Millisecond, HistoryRetention: time.Minute})
	tenant := map[string]string{"X-FP-Tenant": "acme"}
	var info server.GraphInfo
	if code, _ := doJSONHeaders(t, "POST", ts.URL+"/v1/graphs", tenant,
		server.GraphSpec{Generator: "layered", Levels: 4, PerLevel: 8, Seed: 5}, &info); code != http.StatusCreated {
		t.Fatalf("upload: status %d", code)
	}
	var job server.JobInfo
	if code, _ := doJSONHeaders(t, "POST", ts.URL+"/v1/graphs/"+info.ID+"/place", tenant,
		server.PlaceSpec{Algorithm: "gall", K: 3}, &job); code != http.StatusAccepted {
		t.Fatalf("place: status %d, want 202", code)
	}
	waitJob(t, ts.URL, job.ID)

	var metrics map[string]any
	if code := doJSON(t, "GET", ts.URL+"/metrics", nil, &metrics); code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	checkVocabulary(t, "JSON /metrics", mapKeys(metrics), scalarKeys)

	var typed []string
	sc := bufio.NewScanner(strings.NewReader(fetchText(t, ts.URL+"/metrics?format=prometheus")))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "# TYPE "); ok {
			typed = append(typed, rest)
		}
	}
	var wantTyped []string
	for _, k := range scalarKeys {
		kind := "counter"
		if slices.Contains(gaugeKeys, k) {
			kind = "gauge"
		}
		wantTyped = append(wantTyped, "fpd_"+k+" "+kind)
	}
	for _, k := range tenantKeys[1:] {
		wantTyped = append(wantTyped, "fpd_tenant_"+k+"_total counter")
	}
	wantTyped = append(wantTyped,
		"fpd_build_info gauge",
		"fpd_http_request_seconds histogram",
		"fpd_job_queue_wait_seconds histogram",
		"fpd_job_run_seconds histogram",
		"fpd_place_stage_seconds histogram",
		"fpd_sched_queue_wait_seconds histogram")
	checkVocabulary(t, "Prometheus TYPE lines", typed, wantTyped)

	var history struct {
		Samples []struct {
			Values map[string]float64 `json:"values"`
		} `json:"samples"`
	}
	for deadline := time.Now().Add(5 * time.Second); len(history.Samples) == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if code := doJSON(t, "GET", ts.URL+"/v1/stats/history", nil, &history); code != http.StatusOK {
			t.Fatalf("history: status %d", code)
		}
	}
	if len(history.Samples) == 0 {
		t.Fatal("history never recorded a sample")
	}
	wantHistory := slices.Clone(scalarKeys)
	for _, h := range []string{"job_run_seconds", "job_queue_wait_seconds", "sched_queue_wait_seconds"} {
		for _, q := range []string{"_p50", "_p90", "_p99"} {
			wantHistory = append(wantHistory, h+q)
		}
	}
	checkVocabulary(t, "history sample", mapKeys(history.Samples[0].Values), wantHistory)

	var usage map[string]any
	if code := doJSON(t, "GET", ts.URL+"/v1/tenants/acme/usage", nil, &usage); code != http.StatusOK {
		t.Fatalf("tenant usage: status %d", code)
	}
	checkVocabulary(t, "tenant usage", mapKeys(usage), tenantKeys)
}

// scalarKeys are the unlabeled counters and gauges, shared by JSON
// /metrics, Prometheus (as fpd_<key>) and the history samples.
var scalarKeys = []string{
	"requests_total", "request_errors",
	"graphs_created", "graphs_evicted", "graphs_deleted", "graphs_patched",
	"edges_added", "edges_removed", "sync_placements", "evaluations",
	"jobs_submitted", "jobs_deduped", "jobs_running", "jobs_completed",
	"jobs_failed", "jobs_canceled", "jobs_rejected", "jobs_deferred",
	"flights_joined", "job_queue_depth", "maintain_jobs",
	"cache_hits", "cache_misses", "cache_invalidations", "cache_entries",
	"place_workers_busy", "oracle_evaluations", "batches_submitted",
	"batch_graphs_inflight", "sched_queue_depth", "sched_workers",
	"jobs_deferred_waiting", "oldest_deferred_age_seconds",
	"events_published", "events_dropped", "events_subscribers",
	"history_samples", "tenants_tracked",
	"plan_splices_total", "plan_rebuilds_total",
	"response_encode_errors_total",
}

// gaugeKeys are the scalarKeys exposed with TYPE gauge.
var gaugeKeys = []string{
	"jobs_running", "job_queue_depth", "cache_entries", "place_workers_busy",
	"batch_graphs_inflight", "sched_queue_depth", "sched_workers",
	"jobs_deferred_waiting", "oldest_deferred_age_seconds",
	"events_subscribers", "history_samples", "tenants_tracked",
}

// tenantKeys are the JSON keys of one tenant's usage; every key but
// "tenant" is also the labeled counter fpd_tenant_<key>_total.
var tenantKeys = []string{
	"tenant", "requests", "jobs_submitted", "jobs_completed", "jobs_failed",
	"jobs_canceled", "placements", "oracle_evaluations", "forward_passes",
	"suffix_passes", "cache_hits", "cache_misses", "job_queue_wait_seconds",
	"job_run_seconds", "sched_queue_wait_seconds", "sched_tasks",
	"plan_splices", "plan_rebuilds", "plan_repair_work",
}

func mapKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// checkVocabulary reports every name missing from got or not expected in
// it, and any name listed twice.
func checkVocabulary(t *testing.T, view string, got, want []string) {
	t.Helper()
	got, want = slices.Sorted(slices.Values(got)), slices.Sorted(slices.Values(want))
	if dup := slices.Compact(slices.Clone(got)); len(dup) != len(got) {
		t.Errorf("%s repeats a name: %v", view, got)
	}
	for _, w := range want {
		if _, ok := slices.BinarySearch(got, w); !ok {
			t.Errorf("%s: missing %q", view, w)
		}
	}
	for _, g := range got {
		if _, ok := slices.BinarySearch(want, g); !ok {
			t.Errorf("%s: unexpected %q", view, g)
		}
	}
}
