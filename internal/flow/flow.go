// Package flow implements the information-propagation model of the
// filter-placement paper and the machinery to evaluate its objective
// function.
//
// Propagation model (paper §3). Source nodes generate one item and send a
// copy along each of their out-edges. Every other node blindly relays every
// copy it receives to all of its out-neighbors — unless it is a filter, in
// which case it relays each distinct item exactly once no matter how many
// copies arrive. Φ(A, v) denotes the number of copies node v receives when
// filters are installed at the node set A, and Φ(A, V) = Σ_v Φ(A, v). The
// objective of filter placement is F(A) = Φ(∅, V) − Φ(A, V).
//
// On a DAG the copy counts satisfy, in topological order,
//
//	rec(v)  = Σ_{p ∈ In(v)} w(p,v) · emit(p)
//	emit(v) = 1                     if v is a source
//	        = min(1, rec(v))        if v ∈ A (a filter)
//	        = rec(v)                otherwise
//
// where w ≡ 1 in the deterministic model and w(u,v) ∈ [0,1] is the relay
// probability in the probabilistic extension (expected-copy semantics).
// The package offers two interchangeable arithmetic engines: Float (fast,
// float64, supports edge weights) and Big (exact math/big integers for the
// deterministic model, immune to the exponential growth of path counts).
//
// The per-node marginal gain of adding one more filter has a closed form.
// With rec as above and
//
//	suffix(v) = Σ_{c ∈ Out(v)} w(v,c) · (1 + [c ∉ A]·suffix(c))
//
// computed in reverse topological order, the exact gain in the
// deterministic model is
//
//	F(A ∪ {v}) − F(A) = (rec(v) − min(1, rec(v))) · suffix(v).
//
// For A = ∅ this is the paper's impact I(v) = (Prefix(v) − 1) · Suffix(v).
// The closed form lets a greedy step run in O(|E|) instead of the paper's
// O(Δ·|E|) plist bookkeeping; tests verify it against brute-force
// re-evaluation of Φ.
package flow

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// ErrNotDAG is returned when a model is constructed over a cyclic graph. In
// a cyclic c-graph copy counts diverge (the paper exploits this in its
// Theorem 1 reduction); use the Simulator with a budget for such graphs, or
// extract an acyclic subgraph first (package acyclic).
var ErrNotDAG = errors.New("flow: communication graph must be acyclic")

// Model binds a DAG to its information sources and optional edge weights.
type Model struct {
	g       *graph.Digraph
	sources []int
	isSrc   []bool
	topo    []int
	// weight returns the relay probability of edge (u,v); nil means the
	// deterministic model (weight 1 everywhere).
	weight func(u, v int) float64
	// pc caches the model's execution plan. It is a pointer so the
	// copy-on-write constructors (WithWeights) can give the copy a fresh
	// cache without copying a used sync.Once.
	pc *planCache
}

// planCache lazily builds and then shares a Model's execution plan.
type planCache struct {
	once sync.Once
	plan *Plan
}

// NewModel validates and builds a propagation model. sources lists the
// information origins; when empty, every node with in-degree zero is a
// source. Every source must have in-degree zero, every node must be in
// range, and the graph must be a DAG.
func NewModel(g *graph.Digraph, sources []int) (*Model, error) {
	topo, err := g.TopoOrder()
	if err != nil {
		return nil, ErrNotDAG
	}
	if len(sources) == 0 {
		sources = g.Sources()
	}
	isSrc := make([]bool, g.N())
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("flow: source %d out of range [0,%d)", s, g.N())
		}
		if g.InDegree(s) != 0 {
			return nil, fmt.Errorf("flow: source %d has in-degree %d; sources must have in-degree 0 (add a super-source instead)", s, g.InDegree(s))
		}
		isSrc[s] = true
	}
	return &Model{g: g, sources: append([]int(nil), sources...), isSrc: isSrc, topo: topo, pc: &planCache{}}, nil
}

// NewModelFromPlan stands up a Model over an already-built plan: the
// digraph is materialized from the plan's CSR in O(n+m) (no sort, no
// topological search — the plan's position order IS a topological
// order), and the plan cache is pre-filled so no engine ever triggers a
// buildPlan. This is how the server PATCH path turns a spliced plan into
// the registry's refreshed model without paying the from-scratch
// snapshot+build cost. Only unweighted plans are supported — exactly
// what the dynamic overlay produces.
func NewModelFromPlan(p *Plan, sources []int) (*Model, error) {
	if p.Weighted() {
		return nil, fmt.Errorf("flow: NewModelFromPlan supports only unweighted plans")
	}
	g := p.Digraph()
	if len(sources) == 0 {
		sources = g.Sources()
	}
	isSrc := make([]bool, g.N())
	for _, s := range sources {
		if s < 0 || s >= g.N() {
			return nil, fmt.Errorf("flow: source %d out of range [0,%d)", s, g.N())
		}
		if g.InDegree(s) != 0 {
			return nil, fmt.Errorf("flow: source %d has in-degree %d; sources must have in-degree 0 (add a super-source instead)", s, g.InDegree(s))
		}
		isSrc[s] = true
	}
	topo := make([]int, p.n)
	for i, v := range p.perm {
		topo[i] = int(v)
	}
	pc := &planCache{plan: p}
	pc.once.Do(func() {}) // the plan is already built; pin the cache
	return &Model{g: g, sources: append([]int(nil), sources...), isSrc: isSrc, topo: topo, pc: pc}, nil
}

// MustModel is NewModel that panics on error, for tests and examples over
// known-good graphs.
func MustModel(g *graph.Digraph, sources []int) *Model {
	m, err := NewModel(g, sources)
	if err != nil {
		panic(err)
	}
	return m
}

// WithWeights returns a copy of the model using w(u,v) as the relay
// probability of each edge. Weights must lie in [0, 1]; they are checked
// lazily (engines validate the values they read). Only the Float engine
// supports weighted models.
func (m *Model) WithWeights(w func(u, v int) float64) *Model {
	c := *m
	c.weight = w
	c.pc = &planCache{} // weights are baked into the plan; the copy needs its own
	return &c
}

// Plan returns the model's execution plan — the level-packed iteration
// order, re-indexed CSR and scratch arena every engine's passes run over —
// building it on first use. Plans are immutable and safe to share across
// engines, clones and goroutines.
func (m *Model) Plan() *Plan {
	m.pc.once.Do(func() { m.pc.plan = buildPlan(m) })
	return m.pc.plan
}

// checkedWeight returns the relay probability of edge (u,v), validating
// its range; the plan builder bakes the result into flat per-edge arrays.
func (m *Model) checkedWeight(u, v int) float64 {
	w := m.weight(u, v)
	if w < 0 || w > 1 {
		panic(fmt.Sprintf("flow: weight(%d,%d) = %v outside [0,1]", u, v, w))
	}
	return w
}

// Graph returns the underlying digraph.
func (m *Model) Graph() *graph.Digraph { return m.g }

// Sources returns the designated source nodes.
func (m *Model) Sources() []int { return m.sources }

// IsSource reports whether v is a source.
func (m *Model) IsSource(v int) bool { return m.isSrc[v] }

// Topo returns the cached deterministic topological order.
func (m *Model) Topo() []int { return m.topo }

// Weighted reports whether the model carries edge weights.
func (m *Model) Weighted() bool { return m.weight != nil }

// N returns the node count of the underlying graph.
func (m *Model) N() int { return m.g.N() }

// Evaluator computes the paper's objective quantities for a model. The two
// implementations are NewFloat (float64 arithmetic, supports probabilistic
// weights) and NewBig (exact big-integer arithmetic for the deterministic
// model). All filter sets are boolean masks of length N(); entries for
// source nodes are ignored (filtering a source never changes anything since
// sources already emit a single copy).
type Evaluator interface {
	// Model returns the model being evaluated.
	Model() *Model
	// Phi returns Φ(A, V): total copies received over all nodes. A nil
	// mask means no filters.
	Phi(filters []bool) float64
	// Received returns Φ(A, v) for every node v (the paper's Prefix(v)
	// when A is empty).
	Received(filters []bool) []float64
	// Suffix returns the downstream amplification of every node under
	// filters A (the paper's Suffix(v) when A is empty).
	Suffix(filters []bool) []float64
	// Impacts returns the exact marginal gain F(A∪{v}) − F(A) for every
	// node (0 for sources and for nodes already in A).
	Impacts(filters []bool) []float64
	// ArgmaxImpact returns the node with the largest marginal gain and
	// that gain, breaking ties toward the smaller node id. It returns
	// v = -1 when every candidate gain is zero. banned marks nodes that
	// must not be selected (typically the current filter set).
	ArgmaxImpact(filters, banned []bool) (v int, gain float64)
	// F returns the objective F(A) = Φ(∅,V) − Φ(A,V).
	F(filters []bool) float64
	// MaxF returns F(V), the largest achievable reduction (filters
	// everywhere, Proposition 1). It is the denominator of the paper's
	// Filter Ratio metric.
	MaxF() float64
}

// FR returns the paper's Filter Ratio F(A)/F(V) for the given filter set,
// clamped to [0, 1]. By convention FR is 1 when F(V) = 0 (a filter-less
// graph with no redundancy at all cannot be improved, so any placement is
// vacuously perfect).
func FR(ev Evaluator, filters []bool) float64 {
	den := ev.MaxF()
	if den <= 0 {
		return 1
	}
	r := ev.F(filters) / den
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// AllFilters returns the filter mask used by MaxF: every non-source node is
// a filter. Exported because experiments and Proposition 1 use it directly.
func AllFilters(m *Model) []bool {
	mask := make([]bool, m.N())
	for v := range mask {
		mask[v] = !m.IsSource(v)
	}
	return mask
}

// MaskOf converts a node list to a boolean mask of length n.
func MaskOf(n int, nodes []int) []bool {
	mask := make([]bool, n)
	for _, v := range nodes {
		mask[v] = true
	}
	return mask
}

// NodesOf converts a mask to an ascending node list.
func NodesOf(mask []bool) []int {
	var nodes []int
	for v, ok := range mask {
		if ok {
			nodes = append(nodes, v)
		}
	}
	return nodes
}
