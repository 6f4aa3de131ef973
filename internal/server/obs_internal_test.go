package server

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestMetricsSnapshotDrift pins the one-declaration contract end to end:
// every Metrics field, sampled gauge and tenant field is declared once,
// and each appears in every view it belongs to — the unlabeled series in
// JSON /metrics, in the stats-history sample and as fpd_<key> in the
// Prometheus exposition with its value, TYPE and HELP; the tenant fields
// as labeled fpd_tenant_<key>_total counters. Every TYPE line carries a
// HELP line, and the exposition passes the strict linter.
func TestMetricsSnapshotDrift(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	mv := reflect.ValueOf(s.metrics).Elem()
	for i := 0; i < mv.NumField(); i++ {
		mv.Field(i).Addr().Interface().(*atomic.Int64).Store(int64(i + 1))
	}
	s.acct.Tenant("acme").AddRequest()

	flat := s.obs.reg.Values(false)
	history := s.obs.reg.Values(true)
	var buf bytes.Buffer
	if err := s.obs.reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	for i := 0; i < mv.NumField(); i++ {
		f := mv.Type().Field(i)
		key, kind, _ := strings.Cut(f.Tag.Get("metric"), ",")
		if kind == "" {
			kind = "counter"
		}
		if got, ok := flat[key]; !ok || got != float64(i+1) {
			t.Errorf("Metrics.%s: /metrics[%q] = %v, %v; want %d", f.Name, key, got, ok, i+1)
		}
		if !strings.Contains(text, fmt.Sprintf("# TYPE fpd_%s %s\nfpd_%s %d\n", key, kind, key, i+1)) {
			t.Errorf("Metrics.%s: exposition lacks fpd_%s as a %s with value %d", f.Name, key, kind, i+1)
		}
	}
	for key := range flat {
		if _, ok := history[key]; !ok {
			t.Errorf("history sample lacks %q", key)
		}
		if !strings.Contains(text, "\nfpd_"+key+" ") {
			t.Errorf("exposition lacks a sample of fpd_%s", key)
		}
	}
	ut := reflect.TypeOf(obs.TenantUsage{})
	for i := 1; i < ut.NumField(); i++ {
		name := "fpd_tenant_" + ut.Field(i).Tag.Get("json") + "_total"
		if !strings.Contains(text, "# TYPE "+name+" counter\n"+name+`{tenant="acme"} `) {
			t.Errorf("TenantUsage.%s: exposition lacks counter %s{tenant=\"acme\"}", ut.Field(i).Name, name)
		}
	}
	for _, line := range strings.Split(text, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, _, _ = strings.Cut(name, " ")
			if !strings.Contains(text, "# HELP "+name+" ") {
				t.Errorf("%s has a TYPE line but no HELP line", name)
			}
		}
	}
	if err := obs.LintPrometheus(strings.NewReader(text)); err != nil {
		t.Errorf("exposition fails lint: %v", err)
	}
}

// timelineStages flattens a timeline to its stage names.
func timelineStages(info JobInfo) map[string]obs.StageRecord {
	out := make(map[string]obs.StageRecord, len(info.Timeline))
	for _, rec := range info.Timeline {
		out[rec.Name] = rec
	}
	return out
}

// TestJobTimelineDeferred: a gang parked behind a saturated scheduler
// reports a deferred-wait stage once admitted, and the deferred gauges
// expose the parked backlog while it waits.
func TestJobTimelineDeferred(t *testing.T) {
	e, _ := newTestEngine(1, 4)
	defer e.Close()
	saturated := forceProbe(e)
	saturated.Store(true)

	info := gangJob(t, e, "batch|k1", okFn)
	if waiting, oldest := e.DeferredStats(); waiting != 1 || oldest < 0 {
		t.Fatalf("DeferredStats = %d, %v, want 1 parked with non-negative age", waiting, oldest)
	}
	saturated.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	done, err := e.Wait(ctx, info.ID)
	if err != nil || done.State != JobDone {
		t.Fatalf("deferred gang finished as %s (err %v)", done.State, err)
	}
	stages := timelineStages(done)
	for _, want := range []string{"deferred-wait", "queued", "run"} {
		if _, ok := stages[want]; !ok {
			t.Errorf("timeline missing %q stage: %+v", want, done.Timeline)
		}
	}
	if waiting, oldest := e.DeferredStats(); waiting != 0 || oldest != 0 {
		t.Errorf("DeferredStats after drain = %d, %v, want 0, 0", waiting, oldest)
	}
}

// TestJobTimelineCanceled: a job canceled while still queued records the
// time it spent in the queue.
func TestJobTimelineCanceled(t *testing.T) {
	e, _ := newTestEngine(1, 4)
	defer e.Close()
	release := make(chan struct{})
	defer close(release)

	running, err := e.SubmitFunc("g1", PlaceSpec{Algorithm: "gall", K: 1}, "run", JobMeta{}, blockingFn(release))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, e, running.ID, JobRunning)
	queued, err := e.SubmitFunc("g2", PlaceSpec{Algorithm: "gall", K: 1}, "queued", JobMeta{}, okFn)
	if err != nil {
		t.Fatal(err)
	}
	canceled, ok := e.Cancel(queued.ID)
	if !ok || canceled.State != JobCanceled {
		t.Fatalf("cancel queued: ok=%v state=%s", ok, canceled.State)
	}
	if _, ok := timelineStages(canceled)["queued"]; !ok {
		t.Errorf("canceled job timeline missing queued stage: %+v", canceled.Timeline)
	}
}
