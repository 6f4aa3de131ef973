package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRegistryExpositionPassesLint is the round-trip check: everything
// the registry can emit must satisfy the linter.
func TestRegistryExpositionPassesLint(t *testing.T) {
	r := NewRegistry("fpd_")
	r.Scalar(Desc{"test_total", "a counter", "counter"}, func() float64 { return 42 })
	r.Scalar(Desc{"test_depth", "a gauge", "gauge"}, func() float64 { return -3.5 })
	h := r.Histogram("test_seconds", "a histogram", nil)
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Second)
	v := r.HistogramVec("test_stage_seconds", "a labeled histogram", "stage", []float64{0.01, 1})
	v.With("forward").Observe(time.Millisecond)
	v.With(`wei"rd\value`).Observe(time.Minute)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("lint failed: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE fpd_test_total counter",
		"fpd_test_total 42",
		"# TYPE fpd_test_depth gauge",
		"fpd_test_depth -3.5",
		`fpd_test_seconds_bucket{le="+Inf"} 2`,
		"fpd_test_seconds_count 2",
		`fpd_test_stage_seconds_bucket{stage="forward",le="0.01"} 1`,
		`fpd_test_stage_seconds_count{stage="forward"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestLintAcceptsCanonicalExposition(t *testing.T) {
	good := `# HELP fpd_requests_total Total requests.
# TYPE fpd_requests_total counter
fpd_requests_total 107
# TYPE fpd_lat_seconds histogram
fpd_lat_seconds_bucket{le="0.1"} 3
fpd_lat_seconds_bucket{le="+Inf"} 5
fpd_lat_seconds_sum 1.5
fpd_lat_seconds_count 5
# TYPE fpd_up gauge
fpd_up 1
`
	if err := LintPrometheus(strings.NewReader(good)); err != nil {
		t.Fatalf("lint rejected canonical exposition: %v", err)
	}
}

func TestLintRejections(t *testing.T) {
	cases := map[string]string{
		"bad metric name":       "0bad_name 1\n",
		"unparseable value":     "fpd_x one\n",
		"unclosed braces":       "fpd_x{le=\"1\" 3\n",
		"unquoted label":        "fpd_x{le=1} 3\n",
		"bad type":              "# TYPE fpd_x weird\nfpd_x 1\n",
		"duplicate TYPE":        "# TYPE fpd_x counter\n# TYPE fpd_x counter\nfpd_x 1\n",
		"type after samples":    "fpd_x 1\n# TYPE fpd_x counter\n",
		"non-cumulative hist":   "# TYPE fpd_h histogram\nfpd_h_bucket{le=\"1\"} 5\nfpd_h_bucket{le=\"+Inf\"} 3\nfpd_h_sum 1\nfpd_h_count 3\n",
		"missing +Inf bucket":   "# TYPE fpd_h histogram\nfpd_h_bucket{le=\"1\"} 5\nfpd_h_sum 1\nfpd_h_count 5\n",
		"missing _count":        "# TYPE fpd_h histogram\nfpd_h_bucket{le=\"+Inf\"} 5\nfpd_h_sum 1\n",
		"count != Inf bucket":   "# TYPE fpd_h histogram\nfpd_h_bucket{le=\"+Inf\"} 5\nfpd_h_sum 1\nfpd_h_count 4\n",
		"descending le bounds":  "# TYPE fpd_h histogram\nfpd_h_bucket{le=\"2\"} 1\nfpd_h_bucket{le=\"1\"} 2\nfpd_h_bucket{le=\"+Inf\"} 2\nfpd_h_sum 1\nfpd_h_count 2\n",
		"bare histogram sample": "# TYPE fpd_h histogram\nfpd_h 5\n",
	}
	for name, input := range cases {
		if err := LintPrometheus(strings.NewReader(input)); err == nil {
			t.Errorf("%s: lint accepted %q", name, input)
		}
	}
}

func TestLintAcceptsSpecialValues(t *testing.T) {
	input := "fpd_x +Inf\nfpd_y -Inf\nfpd_z NaN\nfpd_ts 3 1700000000\n"
	if err := LintPrometheus(strings.NewReader(input)); err != nil {
		t.Fatalf("special values rejected: %v", err)
	}
}

// TestRegistryKindConflictPanics: a name is declared once — a second
// declaration panics, with the same kind or another.
func TestRegistryKindConflictPanics(t *testing.T) {
	for _, kind := range []string{"counter", "gauge"} {
		r := NewRegistry("")
		r.Scalar(Desc{"fpd_x", "", "counter"}, func() float64 { return 0 })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("second declaration as %s did not panic", kind)
				}
			}()
			r.Scalar(Desc{"fpd_x", "", kind}, func() float64 { return 0 })
		}()
	}
}

// TestRegistryValues: the flat view holds every unlabeled counter and
// gauge under its key (no prefix), and with quantiles also the
// p50/p90/p99 of every unlabeled histogram; labeled families stay out.
func TestRegistryValues(t *testing.T) {
	r := NewRegistry("fpd_")
	r.Scalar(Desc{"hits", "", "counter"}, func() float64 { return 3 })
	r.Scalar(Desc{"depth", "", "gauge"}, func() float64 { return 1.5 })
	r.Histogram("run_seconds", "", nil).Observe(time.Second)
	r.HistogramVec("stage_seconds", "", "stage", nil).With("x").Observe(time.Second)
	r.Table("tenant", []Desc{{"tenant_hits_total", "", "counter"}}, func() []Row { return []Row{{"a", []float64{1}}} })
	r.Info("build_info", "", map[string]string{"version": "dev"})
	flat := r.Values(false)
	if len(flat) != 2 || flat["hits"] != 3 || flat["depth"] != 1.5 {
		t.Errorf("Values(false) = %v, want hits and depth only", flat)
	}
	withQ := r.Values(true)
	for _, k := range []string{"hits", "depth", "run_seconds_p50", "run_seconds_p90", "run_seconds_p99"} {
		if _, ok := withQ[k]; !ok {
			t.Errorf("Values(true) missing %q: %v", k, withQ)
		}
	}
	if len(withQ) != 5 {
		t.Errorf("Values(true) = %v, want 5 keys", withQ)
	}
}
