package core

import (
	"repro/internal/flow"
)

// greedyL is the paper's Greedy_L heuristic: in each of k rounds place a
// filter at the maximizer of the simplified impact I′(v) = Prefix(v)·dout(v)
// under the current filter set — the number of copies v pushes to its
// immediate children.
//
// It implements the paper's running-time remark ("the only nodes whose
// value of I′ changes are those that are after v in the topological
// order... clever bookkeeping allows us to make these updates in,
// practically, constant time"): instead of recomputing every prefix each
// round, it maintains rec/emit incrementally and, after placing a filter
// at v, pushes the emission delta only through v's descendants, so edge
// work per round is proportional to the affected cone rather than |E|.
// Weighted models (whose emissions scale by per-edge probabilities) and
// evaluators other than the single-item float and big engines fall back to
// greedyLRecompute, which recomputes every prefix each round.
func greedyL(ev flow.Evaluator, k int) []int {
	m := ev.Model()
	_, isFloat := ev.(*flow.FloatEngine)
	_, isBig := ev.(*flow.BigEngine)
	if m.Weighted() || !(isFloat || isBig) {
		return greedyLRecompute(ev, k)
	}
	g := m.Graph()
	n := m.N()
	topo := m.Topo()
	rank := make([]int, n)
	for i, v := range topo {
		rank[v] = i
	}

	// Initial forward state.
	rec := append([]float64(nil), ev.Received(nil)...)
	emit := make([]float64, n)
	for v := 0; v < n; v++ {
		if m.IsSource(v) {
			emit[v] = 1
		} else {
			emit[v] = rec[v]
		}
	}

	filters := make([]bool, n)
	chosen := make([]int, 0, k)
	// Scratch for the dirty-region propagation, keyed by topo rank so
	// updates run in topological order.
	dirty := make([]bool, n)

	for len(chosen) < k {
		best, bestScore := -1, 0.0
		for v := 0; v < n; v++ {
			if filters[v] || m.IsSource(v) {
				continue
			}
			score := rec[v] * float64(g.OutDegree(v))
			if score > bestScore {
				best, bestScore = v, score
			}
		}
		if best < 0 {
			break
		}
		filters[best] = true
		chosen = append(chosen, best)

		// New emission at best: min(1, rec) under the perfect-filter
		// model; rec(best) itself is unchanged.
		newEmit := rec[best]
		if newEmit > 1 {
			newEmit = 1
		}
		if newEmit == emit[best] {
			continue // nothing propagates
		}
		emit[best] = newEmit

		// Push deltas through descendants in topological order. A simple
		// rank-ordered frontier: mark children dirty, sweep ranks after
		// best's.
		for _, c := range g.Out(best) {
			dirty[c] = true
		}
		for i := rank[best] + 1; i < n; i++ {
			v := topo[i]
			if !dirty[v] {
				continue
			}
			dirty[v] = false
			// Recompute rec(v) from parents (cheap: |In(v)| work, only
			// inside the affected cone).
			r := 0.0
			for _, p := range g.In(v) {
				r += emit[p]
			}
			if r == rec[v] {
				continue
			}
			rec[v] = r
			ne := r
			if m.IsSource(v) {
				ne = 1
			} else if filters[v] && r > 1 {
				ne = 1
			}
			if ne != emit[v] {
				emit[v] = ne
				for _, c := range g.Out(v) {
					dirty[c] = true
				}
			}
		}
	}
	return chosen
}

// greedyLRecompute is Greedy_L with every prefix recomputed by a full
// forward pass each round: O(k·|E|). It is greedyL's fallback for the
// models and evaluators the incremental pass does not cover.
func greedyLRecompute(ev flow.Evaluator, k int) []int {
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
