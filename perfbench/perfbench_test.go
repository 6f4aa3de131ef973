package main

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"

	"repro/internal/server"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{1, 2, 3, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps span 2: covered once
		{ID: 4, Parent: 1, Start: 90, End: 120}, // clipped to the parent's end
		{ID: 5, Parent: 2, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

// An empty 200 is the server's failure mode when it cannot encode a
// result; the client must count it as a failed op, not a success.
func TestEmptyOKIsAFailure(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer stub.Close()
	c := newClient(stub.URL, nil, nil)
	defer c.close()
	_, _, err := c.place("g1", server.PlaceSpec{Algorithm: "gall", K: 1})
	if !errors.Is(err, errEmptyBody) {
		t.Fatalf("place on an empty 200: err = %v, want errEmptyBody", err)
	}
	c.rec.count("place", false, err)
	_, err = c.evaluate("g1", []int{0})
	c.rec.count("evaluate", false, err)
	if a, f := c.rec.totals(); a != 2 || f != 2 {
		t.Errorf("totals = %d attempted, %d failed; want 2, 2", a, f)
	}
}

func TestBenchmarkJSONNamesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v, harness reports %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v, harness reports %v", got, perLayer)
	}
}

// smoke runs one workload at self-test size and checks that every op
// succeeded and every reported metric is present.
func smoke(t *testing.T, workload string, trace bool) *report {
	t.Helper()
	rep, err := run(config{workload: workload, seed: 1, seconds: 0.4, trace: trace, outDir: t.TempDir(), sizes: tinySizes, reps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.failed != 0 || rep.attempted == 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", workload, rep.failed, rep.attempted, rep.Errors)
	}
	names := endToEnd
	if trace {
		names = perLayer
	}
	for _, name := range names {
		if _, ok := rep.Metrics[name]; !ok {
			t.Errorf("%s: metric %s missing", workload, name)
		}
	}
	return rep
}

func TestSmokeIngest(t *testing.T) { smoke(t, "ingest", false) }

func TestSmokePlaceLarge(t *testing.T) {
	rep := smoke(t, "place-large", false)
	if rep.Checks == 0 {
		t.Errorf("no placement was recomputed in process")
	}
}

func TestSmokeFleetTraced(t *testing.T) {
	rep := smoke(t, "fleet", true)
	// The diamond chain's answers overflow float64: its ops run and are
	// counted apart from the other ops.
	for _, kind := range []string{"diamond.evaluate", "diamond.gall"} {
		if k := rep.Known[kind]; k == nil || k.Attempted == 0 {
			t.Errorf("%s: %+v, want attempts", kind, k)
		}
		if _, ok := rep.Kinds[kind]; ok {
			t.Errorf("%s counted with the ordinary ops", kind)
		}
	}
	if _, err := os.Stat(rep.SpansFile); err != nil {
		t.Errorf("spans file: %v", err)
	}
}
