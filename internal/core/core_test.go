package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// placeFilters runs Place serially with strategy s and returns its filters.
func placeFilters(t testing.TB, ev flow.Evaluator, k int, s Strategy) []int {
	t.Helper()
	res, err := Place(context.Background(), ev, k, Options{Strategy: s})
	if err != nil {
		t.Fatalf("Place(%s): %v", s, err)
	}
	return res.Filters
}

func evalFor(t testing.TB, g *graph.Digraph, sources []int) flow.Evaluator {
	t.Helper()
	m, err := flow.NewModel(g, sources)
	if err != nil {
		t.Fatalf("NewModel: %v", err)
	}
	return flow.NewBig(m)
}

func TestGreedyAllFigure1(t *testing.T) {
	g, s := gen.Figure1()
	ev := evalFor(t, g, []int{s})
	a := placeFilters(t, ev, 1, StrategyGreedyAll)
	if !reflect.DeepEqual(a, []int{gen.Fig1Z2}) {
		t.Fatalf("GreedyAll = %v, want [z2=%d]", a, gen.Fig1Z2)
	}
	if fr := flow.FR(ev, flow.MaskOf(g.N(), a)); fr != 1 {
		t.Errorf("FR = %v, want 1", fr)
	}
	// Asking for more filters stops early: nothing else helps.
	if a := placeFilters(t, ev, 5, StrategyGreedyAll); len(a) != 1 {
		t.Errorf("GreedyAll(k=5) = %v, want exactly 1 useful filter", a)
	}
}

func TestFigure2PaperNumbers(t *testing.T) {
	g, s := gen.Figure2()
	ev := evalFor(t, g, []int{s})
	if phi := ev.Phi(nil); phi != 14 {
		t.Fatalf("Φ(∅,V) = %v, want 14", phi)
	}
	// Greedy_1 prefers B: m(B) = 1·4 > m(A) = 3·1.
	g1 := placeFilters(t, ev, 1, StrategyGreedy1)
	if !reflect.DeepEqual(g1, []int{gen.Fig2B}) {
		t.Errorf("Greedy1 = %v, want [B=%d]", g1, gen.Fig2B)
	}
	if phi := ev.Phi(flow.MaskOf(g.N(), g1)); phi != 14 {
		t.Errorf("Φ({B}) = %v, want 14 (filter at B changes nothing)", phi)
	}
	// The optimum (found by Greedy_All and by exhaustive search) is A.
	ga := placeFilters(t, ev, 1, StrategyGreedyAll)
	if !reflect.DeepEqual(ga, []int{gen.Fig2A}) {
		t.Errorf("GreedyAll = %v, want [A=%d]", ga, gen.Fig2A)
	}
	if phi := ev.Phi(flow.MaskOf(g.N(), ga)); phi != 12 {
		t.Errorf("Φ({A}) = %v, want 12", phi)
	}
	opt, optF := Exhaustive(ev, 1)
	if !reflect.DeepEqual(opt, []int{gen.Fig2A}) || optF != 2 {
		t.Errorf("Exhaustive = %v (F=%v), want [A] with F=2", opt, optF)
	}
}

func TestFigure3PaperNumbers(t *testing.T) {
	g, srcs := gen.Figure3()
	ev := evalFor(t, g, srcs)
	if phi := ev.Phi(nil); phi != 26 {
		t.Fatalf("Φ(∅,V) = %v, want 26", phi)
	}
	imp := ev.Impacts(nil)
	if imp[gen.Fig3A] != 7 || imp[gen.Fig3B] != 6 || imp[gen.Fig3C] != 6 {
		t.Errorf("impacts A,B,C = %v,%v,%v, want 7,6,6",
			imp[gen.Fig3A], imp[gen.Fig3B], imp[gen.Fig3C])
	}
	// After filtering A: I(B|A) = 3, I(C|A) = 4.
	fA := flow.MaskOf(g.N(), []int{gen.Fig3A})
	impA := ev.Impacts(fA)
	if impA[gen.Fig3B] != 3 || impA[gen.Fig3C] != 4 {
		t.Errorf("impacts after A: B=%v C=%v, want 3, 4", impA[gen.Fig3B], impA[gen.Fig3C])
	}
	// Greedy_All chooses {A, C} reaching Φ = 15; the optimum {B, C}
	// reaches Φ = 14.
	ga := placeFilters(t, ev, 2, StrategyGreedyAll)
	if !reflect.DeepEqual(ga, []int{gen.Fig3A, gen.Fig3C}) {
		t.Errorf("GreedyAll = %v, want [A C]", ga)
	}
	if phi := ev.Phi(flow.MaskOf(g.N(), ga)); phi != 15 {
		t.Errorf("Φ({A,C}) = %v, want 15", phi)
	}
	opt, optF := Exhaustive(ev, 2)
	if !reflect.DeepEqual(opt, []int{gen.Fig3B, gen.Fig3C}) {
		t.Errorf("Exhaustive = %v, want [B C]", opt)
	}
	if optF != 12 { // 26 − 14
		t.Errorf("optimal F = %v, want 12", optF)
	}
}

func TestGreedyVariantsAgree(t *testing.T) {
	// GreedyAll, GreedyAllNaive and GreedyAllCELF must produce identical
	// filter sets (same tie-breaking everywhere).
	f := func(seed int64) bool {
		g, src := gen.RandomDAG(25, 0.2, seed)
		ev := evalFor(t, g, []int{src})
		k := 4
		a := placeFilters(t, ev, k, StrategyGreedyAll)
		naive, _ := Place(context.Background(), ev, k, Options{Strategy: StrategyNaive})
		celf, _ := Place(context.Background(), ev, k, Options{Strategy: StrategyCELF})
		b, stNaive := naive.Filters, naive.Stats
		c, stCELF := celf.Filters, celf.Stats
		if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(a, c) {
			t.Logf("seed %d: all=%v naive=%v celf=%v", seed, a, b, c)
			return false
		}
		if len(a) == k && stCELF.GainEvaluations > stNaive.GainEvaluations+g.N() {
			t.Logf("seed %d: CELF did more work than naive: %d vs %d",
				seed, stCELF.GainEvaluations, stNaive.GainEvaluations)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestGreedyAllK1Optimal(t *testing.T) {
	// The paper: "Observe that Greedy All is optimal for k = 1."
	f := func(seed int64) bool {
		g, src := gen.RandomDAG(18, 0.25, seed)
		ev := evalFor(t, g, []int{src})
		a := placeFilters(t, ev, 1, StrategyGreedyAll)
		_, optF := Exhaustive(ev, 1)
		var gotF float64
		if len(a) > 0 {
			gotF = ev.F(flow.MaskOf(g.N(), a))
		}
		if math.Abs(gotF-optF) > 1e-9*(1+optF) {
			t.Logf("seed %d: greedy F=%v opt F=%v", seed, gotF, optF)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyAllApproximationBound(t *testing.T) {
	// Nemhauser et al.: greedy achieves at least (1 − 1/e)·OPT.
	bound := 1 - 1/math.E
	f := func(seed int64) bool {
		g, src := gen.RandomDAG(15, 0.3, seed)
		ev := evalFor(t, g, []int{src})
		for _, k := range []int{2, 3} {
			a := placeFilters(t, ev, k, StrategyGreedyAll)
			gotF := ev.F(flow.MaskOf(g.N(), a))
			_, optF := Exhaustive(ev, k)
			if optF == 0 {
				continue
			}
			if gotF < bound*optF-1e-9 {
				t.Logf("seed %d k=%d: F=%v < (1-1/e)·%v", seed, k, gotF, optF)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestUnboundedOptimalProposition1(t *testing.T) {
	// Proposition 1: A = {v : din(v) > 1 and dout(v) > 0} achieves F(V),
	// and it is minimal — removing any member strictly hurts.
	f := func(seed int64) bool {
		g, src := gen.RandomDAG(20, 0.25, seed)
		ev := evalFor(t, g, []int{src})
		a := UnboundedOptimal(g)
		mask := flow.MaskOf(g.N(), a)
		if math.Abs(ev.F(mask)-ev.MaxF()) > 1e-9*(1+ev.MaxF()) {
			t.Logf("seed %d: F(A)=%v != MaxF=%v", seed, ev.F(mask), ev.MaxF())
			return false
		}
		for _, v := range a {
			mask[v] = false
			if ev.F(mask) >= ev.MaxF() {
				t.Logf("seed %d: dropping %d keeps F maximal — not minimal", seed, v)
				return false
			}
			mask[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGreedyMaxVsGreedyAllOnFigure2(t *testing.T) {
	// Greedy_Max computes true impacts once, so unlike Greedy_1 it
	// correctly prefers A on Figure 2.
	g, s := gen.Figure2()
	ev := evalFor(t, g, []int{s})
	gm := placeFilters(t, ev, 1, StrategyGreedyMax)
	if !reflect.DeepEqual(gm, []int{gen.Fig2A}) {
		t.Errorf("GreedyMax = %v, want [A=%d]", gm, gen.Fig2A)
	}
}

func TestGreedyLPrefersDownstream(t *testing.T) {
	// Greedy_L ranks by Prefix·dout; on Figure 2 the prefix of B equals 1
	// while A's prefix is 3, so I′(A) = 3 > I′(B)·1 = 4 — B still wins
	// because of its fan-out, reproducing the heuristic's known bias.
	g, s := gen.Figure2()
	m := flow.MustModel(g, []int{s})
	gl := placeFilters(t, flow.NewBig(m), 1, StrategyGreedyL)
	if !reflect.DeepEqual(gl, []int{gen.Fig2B}) {
		t.Errorf("GreedyL = %v, want [B=%d]", gl, gen.Fig2B)
	}
}

func TestHeuristicsWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		g, src := gen.RandomDAG(30, 0.15, seed)
		m := flow.MustModel(g, []int{src})
		ev := flow.NewFloat(m)
		k := 5
		for name, a := range map[string][]int{
			"GreedyAll": placeFilters(t, ev, k, StrategyGreedyAll),
			"GreedyMax": placeFilters(t, ev, k, StrategyGreedyMax),
			"Greedy1":   placeFilters(t, ev, k, StrategyGreedy1),
			"GreedyL":   placeFilters(t, ev, k, StrategyGreedyL),
		} {
			if len(a) > k {
				t.Logf("%s returned %d > k nodes", name, len(a))
				return false
			}
			seen := map[int]bool{}
			for _, v := range a {
				if v < 0 || v >= g.N() || seen[v] {
					t.Logf("%s returned bad/duplicate node %d", name, v)
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRandomBaselines(t *testing.T) {
	g, src := gen.RandomDAG(200, 0.05, 42)
	m := flow.MustModel(g, []int{src})
	k := 10

	rng := rand.New(rand.NewSource(1))
	a := RandK(m, k, rng)
	if len(a) != k {
		t.Errorf("RandK returned %d nodes, want %d", len(a), k)
	}
	if !sort.IntsAreSorted(a) {
		t.Errorf("RandK not sorted: %v", a)
	}
	// Expected size of RandI and RandW is ≈ k; check the average over
	// repetitions stays in a generous window.
	totalI, totalW := 0, 0
	const reps = 200
	for i := 0; i < reps; i++ {
		totalI += len(RandI(m, k, rng))
		totalW += len(RandW(m, k, rng))
	}
	if avg := float64(totalI) / reps; math.Abs(avg-float64(k)) > 2 {
		t.Errorf("RandI average size %v, want ≈ %d", avg, k)
	}
	if avg := float64(totalW) / reps; avg < 2 || avg > 2.5*float64(k) {
		t.Errorf("RandW average size %v, want within a few of %d", avg, k)
	}
	// Determinism given the same rng state.
	r1 := RandK(m, k, rand.New(rand.NewSource(7)))
	r2 := RandK(m, k, rand.New(rand.NewSource(7)))
	if !reflect.DeepEqual(r1, r2) {
		t.Error("RandK not deterministic for a fixed seed")
	}
}

func TestRandKClampedToN(t *testing.T) {
	g, src := gen.RandomDAG(5, 0.3, 1)
	m := flow.MustModel(g, []int{src})
	a := RandK(m, 50, rand.New(rand.NewSource(1)))
	if len(a) != 5 {
		t.Errorf("RandK(k>n) returned %d nodes, want 5", len(a))
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0, 5, 3, 5, 0, 1}
	got := topK(scores, 3)
	// Ties toward smaller index: 1 (5), 3 (5), 2 (3).
	if !reflect.DeepEqual(got, []int{1, 3, 2}) {
		t.Errorf("topK = %v, want [1 3 2]", got)
	}
	if got := topK(scores, 10); len(got) != 4 {
		t.Errorf("topK keeps zero scores: %v", got)
	}
	if got := topK([]float64{0, 0}, 2); len(got) != 0 {
		t.Errorf("topK of zeros = %v, want empty", got)
	}
}
