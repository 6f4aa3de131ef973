package experiments

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/gen"
	"repro/internal/graph"
)

func init() {
	registry["abl-dom"] = AblationDominators
}

// AblationDominators connects filter placement to dominator analysis. The
// paper's Figure 10 observes that "all paths from the upper to the lower
// half of the graph traverse through these nodes" — in graph-theoretic
// terms, the gateway and chain *dominate* the entire lower half. This
// experiment computes each node's dominated-node count on the citation
// graph and shows that (a) Greedy_All's first pick is the maximum-coverage
// dominator, and (b) a placement at the top-k dominator choke points is a
// decent but strictly weaker heuristic than impact-aware greedy, because
// dominance ignores *how many* redundant copies flow through a node.
func AblationDominators(opt Options) (*Report, error) {
	g, src := gen.CitationLike(opt.Seed)
	ev := flow.NewFloat(flow.MustModel(g, []int{src}))
	idom := g.Dominators(src)
	counts := graph.DominatedCount(idom)

	rep := &Report{
		ID:      "abl-dom",
		Title:   "Dominator choke points vs impact-aware placement (Figure-10 structure)",
		Dataset: fmt.Sprintf("CitationLike: %d nodes, %d edges", g.N(), g.M()),
	}

	// Rank non-root nodes by dominated count.
	type domNode struct {
		v, count int
	}
	var ranked []domNode
	for v := 0; v < g.N(); v++ {
		if v != src && idom[v] >= 0 && g.OutDegree(v) > 0 {
			ranked = append(ranked, domNode{v, counts[v]})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].count != ranked[j].count {
			return ranked[i].count > ranked[j].count
		}
		return ranked[i].v < ranked[j].v
	})

	rep.Header = []string{"rank", "node", "dominated nodes", "unfiltered impact"}
	imp := ev.Impacts(nil)
	topDom := make([]int, 0, 10)
	for i := 0; i < 10 && i < len(ranked); i++ {
		rep.AddRow(i+1, ranked[i].v, ranked[i].count, imp[ranked[i].v])
		topDom = append(topDom, ranked[i].v)
	}

	gall := place(ev, core.StrategyGreedyAll, 10, 1, nil)
	frDom := flow.FR(ev, flow.MaskOf(g.N(), topDom))
	frAll := flow.FR(ev, flow.MaskOf(g.N(), gall))
	rep.Note("Greedy_All's first pick: node %d; top dominator: node %d", gall[0], ranked[0].v)
	rep.Note("FR of top-10 dominators: %.4f vs Greedy_All: %.4f", frDom, frAll)
	rep.Note("the top dominators are the gateway/chain — mutually redundant, like Greedy_Max's picks")
	return rep, nil
}
