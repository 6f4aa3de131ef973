package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/gen"
)

func TestGreedyAllPartialZeroLeakMatchesGreedyAll(t *testing.T) {
	f := func(seed int64) bool {
		g, src := gen.RandomDAG(25, 0.2, seed)
		e := flow.NewFloat(flow.MustModel(g, []int{src}))
		a := placeFilters(t, e, 4, StrategyGreedyAll)
		b := GreedyAllPartial(e, 4, 0)
		if !reflect.DeepEqual(a, b) {
			t.Logf("seed %d: %v vs %v", seed, a, b)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGreedyAllPartialFullLeakPlacesNothing(t *testing.T) {
	g, src := gen.RandomDAG(25, 0.2, 7)
	e := flow.NewFloat(flow.MustModel(g, []int{src}))
	if a := GreedyAllPartial(e, 4, 1); len(a) != 0 {
		t.Errorf("leak=1 placed %v; fully-leaky filters have zero gain", a)
	}
}

func TestGreedyAllPartialImproves(t *testing.T) {
	// With moderate leak the placement still recovers a large share of
	// the perfect-filter reduction on QuoteLike.
	g, src := gen.QuoteLike(1)
	e := flow.NewFloat(flow.MustModel(g, []int{src}))
	a := GreedyAllPartial(e, 4, 0.3)
	if len(a) != 4 {
		t.Fatalf("placed %d filters, want 4", len(a))
	}
	fr := e.FRPartial(flow.MaskOf(g.N(), a), 0.3)
	// Leaky filters compound down the hub chain, so the recovery exceeds
	// the naive 1−ρ bound but stays short of perfect.
	if fr < 0.6 || fr > 0.97 {
		t.Errorf("FR = %v, want in (0.6, 0.97)", fr)
	}
	// And more budget keeps helping (weakly).
	a10 := GreedyAllPartial(e, 10, 0.3)
	fr10 := e.FRPartial(flow.MaskOf(g.N(), a10), 0.3)
	if fr10 < fr-1e-9 {
		t.Errorf("FR decreased with budget: %v → %v", fr, fr10)
	}
}

func TestGreedyAllOnMultiEngine(t *testing.T) {
	// The multi-item engine satisfies Evaluator; greedy must run on it
	// and its picks must be exact marginal-gain maximizers.
	g, src := gen.RandomDAG(30, 0.15, 3)
	me, err := flow.NewMulti(g, []flow.Item{
		{Name: "root", Source: src, Rate: 1},
		{Name: "mid", Source: 10, Rate: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	plan := placeFilters(t, me, 3, StrategyGreedyAll)
	if len(plan) == 0 {
		t.Fatal("no filters placed")
	}
	// First pick = argmax of initial impacts.
	gains := me.Impacts(nil)
	best := 0
	for v := range gains {
		if gains[v] > gains[best] {
			best = v
		}
	}
	if plan[0] != best {
		t.Errorf("first pick %d, want argmax %d", plan[0], best)
	}
	// FR is monotone along the plan.
	mask := make([]bool, g.N())
	prev := 0.0
	for _, v := range plan {
		mask[v] = true
		fr := flow.FR(me, mask)
		if fr < prev-1e-9 {
			t.Errorf("FR decreased along greedy plan")
		}
		prev = fr
	}
}
