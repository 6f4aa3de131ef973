package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

// referenceGreedyL is the plain per-round-recompute Greedy_L, kept verbatim
// as the differential reference for greedyL's incremental bookkeeping.
func referenceGreedyL(ev flow.Evaluator, k int) []int {
	m := ev.Model()
	g := m.Graph()
	n := m.N()
	filters := make([]bool, n)
	chosen := make([]int, 0, k)
	for len(chosen) < k {
		prefix := ev.Received(filters)
		best, bestScore := -1, 0.0
		for v := 0; v < n; v++ {
			if filters[v] || m.IsSource(v) {
				continue
			}
			score := prefix[v] * float64(g.OutDegree(v))
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		if best < 0 {
			break
		}
		filters[best] = true
		chosen = append(chosen, best)
	}
	return chosen
}

// phiExactInFloat reports whether every float quantity greedy-l can see on
// m is an exactly representable integer (Φ(∅) < 2^53), the regime where
// the incremental and recompute paths must agree bit for bit.
func phiExactInFloat(m *flow.Model) bool {
	return flow.NewFloat(m).Phi(nil) < math.Exp2(53)
}

// checkGreedyLAgainstReference runs greedyL, Place(StrategyGreedyL) and the
// reference on both single-item engines and requires identical picks.
func checkGreedyLAgainstReference(t *testing.T, name string, m *flow.Model, k int) bool {
	t.Helper()
	ok := true
	for _, ev := range []flow.Evaluator{flow.NewFloat(m), flow.NewBig(m)} {
		want := referenceGreedyL(ev, k)
		if got := greedyL(ev, k); !reflect.DeepEqual(got, want) {
			t.Errorf("%s %T: greedyL %v, reference %v", name, ev, got, want)
			ok = false
		}
		res, err := Place(context.Background(), ev, k, Options{Strategy: StrategyGreedyL})
		if err != nil {
			t.Fatalf("%s: Place: %v", name, err)
		}
		if !reflect.DeepEqual(res.Filters, want) {
			t.Errorf("%s %T: Place(greedy-l) %v, reference %v", name, ev, res.Filters, want)
			ok = false
		}
	}
	return ok
}

func TestGreedyLMatchesReferenceRandom(t *testing.T) {
	f := func(seed int64) bool {
		g, src := gen.RandomDAG(40, 0.12, seed)
		return checkGreedyLAgainstReference(t, fmt.Sprintf("random seed %d", seed), flow.MustModel(g, []int{src}), 6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGreedyLMatchesReferenceFleet covers the generator families the fpd
// fleet workload serves, plus the paper's dataset stand-ins with their
// designated source.
func TestGreedyLMatchesReferenceFleet(t *testing.T) {
	type input struct {
		name    string
		g       *graph.Digraph
		sources []int
	}
	var inputs []input
	add := func(name string, sources func(src int) []int) func(*graph.Digraph, int) {
		return func(g *graph.Digraph, src int) {
			inputs = append(inputs, input{name, g, sources(src)})
		}
	}
	designated := func(src int) []int { return []int{src} }
	indegZero := func(int) []int { return nil } // fpd's default sources
	add("quote", designated)(gen.QuoteLike(1))
	add("citation", designated)(gen.CitationLike(1))
	add("twitter-0.02", designated)(gen.TwitterLike(0.02, 1))
	for i := int64(0); i < 2; i++ {
		add("fleet quote", indegZero)(gen.QuoteLike(100 + i))
		add("fleet citation", indegZero)(gen.CitationLike(110 + i))
		add("fleet twitter-0.05", indegZero)(gen.TwitterLike(0.05, 120+i))
		add("fleet layered", indegZero)(gen.Layered(6, 60+20*int(i), 1, 4, 130+i))
		add("fleet chain-3000", indegZero)(gen.ChainDAG(3000, 8, 140+i))
	}
	checked := 0
	for i, in := range inputs {
		m := flow.MustModel(in.g, in.sources)
		name := fmt.Sprintf("%s #%d (%d nodes)", in.name, i, in.g.N())
		if !phiExactInFloat(m) {
			t.Logf("%s: Φ(∅) ≥ 2^53, skipped", name)
			continue
		}
		checkGreedyLAgainstReference(t, name, m, 10)
		checked++
	}
	if checked < len(inputs)/2 {
		t.Fatalf("only %d of %d inputs had Φ(∅) < 2^53", checked, len(inputs))
	}
}

// TestGreedyLFallbacks pins the recompute fallback: weighted models and the
// multi-item engine must still match the reference exactly.
func TestGreedyLFallbacks(t *testing.T) {
	g, src := gen.RandomDAG(30, 0.15, 2)
	weighted := flow.NewFloat(flow.MustModel(g, []int{src}).WithWeights(func(u, v int) float64 { return 0.8 }))
	multi, err := flow.NewMulti(g, []flow.Item{{Source: src}, {Source: 5, Rate: 2}})
	if err != nil {
		t.Fatal(err)
	}
	for name, ev := range map[string]flow.Evaluator{"weighted": weighted, "multi": multi} {
		if got, want := greedyL(ev, 4), referenceGreedyL(ev, 4); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: greedyL %v, reference %v", name, got, want)
		}
	}
}

func BenchmarkGreedyLReference(b *testing.B) {
	g, src := gen.CitationLike(1)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceGreedyL(ev, 10)
	}
}

func BenchmarkGreedyL(b *testing.B) {
	g, src := gen.CitationLike(1)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedyL(ev, 10)
	}
}
