package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/flow"
)

// TestAccountingEquivalence is the determinism gate of tenant
// attribution: core's one attribution input is Options.Tenant, which tags
// the scheduler batches a placement submits (the server charges the rest
// from the returned Result). A tagged Place must return filter sets AND
// OracleStats bit-identical to the untagged run — attribution observes
// placements, it never participates in them. Checked across strategies
// and parallelism levels.
func TestAccountingEquivalence(t *testing.T) {
	m := placeTestModel(t, 80, 0.05, 42)
	strategies := []Strategy{StrategyGreedyAll, StrategyCELF, StrategyNaive, StrategyGreedyMax}
	for _, strat := range strategies {
		for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
			base := Options{Strategy: strat, Parallelism: procs, Seed: 7}

			want, err := Place(context.Background(), flow.NewFloat(m), 6, base)
			if err != nil {
				t.Fatalf("%s P=%d untagged: %v", strat, procs, err)
			}

			opts := base
			opts.Tenant = "acme"
			got, err := Place(context.Background(), flow.NewFloat(m), 6, opts)
			if err != nil {
				t.Fatalf("%s P=%d tagged: %v", strat, procs, err)
			}

			if !reflect.DeepEqual(got.Filters, want.Filters) {
				t.Errorf("%s P=%d: tagged filters %v, untagged %v",
					strat, procs, got.Filters, want.Filters)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s P=%d: tagged stats %+v, untagged %+v",
					strat, procs, got.Stats, want.Stats)
			}

		}
	}
}

// TestAccountingBatchEquivalence extends the gate to PlaceBatch: a
// tenant-tagged gang must match untagged solo runs graph for graph.
func TestAccountingBatchEquivalence(t *testing.T) {
	models := batchTestModels(t, 6)
	base := Options{Strategy: StrategyCELF, Parallelism: 2, Seed: 3}

	want := make([]Result, len(models))
	for i, m := range models {
		var err error
		want[i], err = Place(context.Background(), flow.NewFloat(m), 5, base)
		if err != nil {
			t.Fatalf("solo graph %d: %v", i, err)
		}
	}

	opts := base
	opts.Tenant = "fleet"
	evs := make([]flow.Evaluator, len(models))
	for i, m := range models {
		evs[i] = flow.NewFloat(m)
	}
	got, err := PlaceBatch(context.Background(), evs, 5, opts)
	if err != nil {
		t.Fatalf("tagged batch: %v", err)
	}
	for i := range models {
		if !reflect.DeepEqual(got[i].Filters, want[i].Filters) {
			t.Errorf("graph %d: tagged batch filters %v, untagged solo %v",
				i, got[i].Filters, want[i].Filters)
		}
		if got[i].Stats != want[i].Stats {
			t.Errorf("graph %d: tagged batch stats %+v, untagged solo %+v",
				i, got[i].Stats, want[i].Stats)
		}
	}
}

// TestAccountingNilIsNoop: a tenant tag with no accountant anywhere (a
// library caller) places exactly as an untagged run would.
func TestAccountingNilIsNoop(t *testing.T) {
	m := placeTestModel(t, 40, 0.08, 9)
	res, err := Place(context.Background(), flow.NewFloat(m), 3,
		Options{Strategy: StrategyGreedyAll, Tenant: "named-but-unaccounted"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Filters) != 3 {
		t.Fatalf("got %d filters, want 3", len(res.Filters))
	}
}
