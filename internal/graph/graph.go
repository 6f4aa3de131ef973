// Package graph provides the directed-graph substrate used by the
// filter-placement library: a compact immutable digraph representation,
// builders, traversals, topological ordering, strongly connected components,
// reachability, subgraph extraction and edge-list I/O.
//
// Terminology follows the paper "The Filter-Placement Problem and its
// Application to Minimizing Information Multiplicity" (Erdős et al., VLDB
// 2012): a communication graph (c-graph) is a directed graph along which
// items propagate from source nodes to the rest of the network. An edge
// (u, v) means u forwards copies of the items it holds to v.
package graph

import (
	"fmt"
	"sort"
)

// Digraph is an immutable directed graph in compressed sparse row form.
// Nodes are dense integers in [0, N()). Both out- and in-adjacency are
// materialized so forward propagation passes (over out-edges) and backward
// suffix passes (over in-edges) are equally cheap.
//
// Construct a Digraph with a Builder, or with convenience constructors such
// as FromEdges.
type Digraph struct {
	n int

	// CSR layout for out-edges: the out-neighbors of node v are
	// outAdj[outOff[v]:outOff[v+1]], sorted ascending.
	outOff []int
	outAdj []int

	// CSR layout for in-edges, symmetric to the above.
	inOff []int
	inAdj []int

	// labels is optional; when non-nil it has length n and carries the
	// external name of each node (e.g. a site hostname or paper id).
	labels []string
}

// FromCSR builds a Digraph directly from prebuilt CSR arrays, taking
// ownership of the slices. The caller guarantees the Digraph invariants:
// offsets are monotone with outOff[0] == inOff[0] == 0 and
// outOff[n] == len(outAdj), inOff[n] == len(inAdj); every adjacency row
// is in ascending order; and the in-CSR is the exact transpose of the
// out-CSR. Only structural sizes are validated here — the trusted
// producer is flow.Plan.Digraph, whose rows carry these invariants by
// construction, letting the PATCH path rebuild a model straight from its
// rows instead of collecting an edge list for the builder.
func FromCSR(n int, outOff, outAdj, inOff, inAdj []int) *Digraph {
	if n < 0 || len(outOff) != n+1 || len(inOff) != n+1 ||
		outOff[n] != len(outAdj) || inOff[n] != len(inAdj) ||
		len(outAdj) != len(inAdj) {
		panic(fmt.Sprintf("graph: FromCSR arrays inconsistent: n=%d |outOff|=%d |inOff|=%d |outAdj|=%d |inAdj|=%d",
			n, len(outOff), len(inOff), len(outAdj), len(inAdj)))
	}
	return &Digraph{n: n, outOff: outOff, outAdj: outAdj, inOff: inOff, inAdj: inAdj}
}

// N returns the number of nodes.
func (g *Digraph) N() int { return g.n }

// M returns the number of directed edges.
func (g *Digraph) M() int { return len(g.outAdj) }

// Out returns the out-neighbors of v in ascending order. The returned slice
// aliases internal storage and must not be modified.
func (g *Digraph) Out(v int) []int { return g.outAdj[g.outOff[v]:g.outOff[v+1]] }

// In returns the in-neighbors of v in ascending order. The returned slice
// aliases internal storage and must not be modified.
func (g *Digraph) In(v int) []int { return g.inAdj[g.inOff[v]:g.inOff[v+1]] }

// OutDegree returns the number of out-edges of v.
func (g *Digraph) OutDegree(v int) int { return g.outOff[v+1] - g.outOff[v] }

// InDegree returns the number of in-edges of v.
func (g *Digraph) InDegree(v int) int { return g.inOff[v+1] - g.inOff[v] }

// HasEdge reports whether the edge (u, v) is present.
func (g *Digraph) HasEdge(u, v int) bool {
	adj := g.Out(u)
	i := sort.SearchInts(adj, v)
	return i < len(adj) && adj[i] == v
}

// Label returns the external label of v, or its decimal id when the graph
// carries no labels.
func (g *Digraph) Label(v int) string {
	if g.labels == nil {
		return fmt.Sprintf("%d", v)
	}
	return g.labels[v]
}

// HasLabels reports whether the graph carries external node labels.
func (g *Digraph) HasLabels() bool { return g.labels != nil }

// Edges returns all edges as (u, v) pairs in CSR order. The slice is freshly
// allocated on every call.
func (g *Digraph) Edges() [][2]int {
	es := make([][2]int, 0, g.M())
	for u := 0; u < g.n; u++ {
		for _, v := range g.Out(u) {
			es = append(es, [2]int{u, v})
		}
	}
	return es
}

// Sources returns all nodes with in-degree zero, in ascending order. In a
// c-graph these are the information origins unless the caller designates
// sources explicitly.
func (g *Digraph) Sources() []int {
	var src []int
	for v := 0; v < g.n; v++ {
		if g.InDegree(v) == 0 {
			src = append(src, v)
		}
	}
	return src
}

// Sinks returns all nodes with out-degree zero, in ascending order.
func (g *Digraph) Sinks() []int {
	var snk []int
	for v := 0; v < g.n; v++ {
		if g.OutDegree(v) == 0 {
			snk = append(snk, v)
		}
	}
	return snk
}

// MaxOutDegree returns the maximum out-degree over all nodes (0 for the
// empty graph).
func (g *Digraph) MaxOutDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.OutDegree(v); d > max {
			max = d
		}
	}
	return max
}

// MaxInDegree returns the maximum in-degree over all nodes (0 for the empty
// graph).
func (g *Digraph) MaxInDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.InDegree(v); d > max {
			max = d
		}
	}
	return max
}

// Transpose returns a new graph with every edge reversed. Labels are shared
// with the receiver.
func (g *Digraph) Transpose() *Digraph {
	t := &Digraph{
		n:      g.n,
		outOff: g.inOff,
		outAdj: g.inAdj,
		inOff:  g.outOff,
		inAdj:  g.outAdj,
		labels: g.labels,
	}
	return t
}

// Clone returns a deep copy of the graph. Useful when the caller intends to
// attach different labels.
func (g *Digraph) Clone() *Digraph {
	c := &Digraph{
		n:      g.n,
		outOff: append([]int(nil), g.outOff...),
		outAdj: append([]int(nil), g.outAdj...),
		inOff:  append([]int(nil), g.inOff...),
		inAdj:  append([]int(nil), g.inAdj...),
	}
	if g.labels != nil {
		c.labels = append([]string(nil), g.labels...)
	}
	return c
}

// WithLabels returns a shallow copy of g carrying the given labels. The
// label slice length must equal g.N().
func (g *Digraph) WithLabels(labels []string) (*Digraph, error) {
	if len(labels) != g.n {
		return nil, fmt.Errorf("graph: %d labels for %d nodes", len(labels), g.n)
	}
	c := *g
	c.labels = labels
	return &c, nil
}

// InducedSubgraph returns the subgraph induced by the nodes for which
// keep[v] is true, together with the mapping old→new node id (new id is -1
// for dropped nodes). Labels, when present, are carried over.
func (g *Digraph) InducedSubgraph(keep []bool) (*Digraph, []int) {
	if len(keep) != g.n {
		panic(fmt.Sprintf("graph: keep mask of length %d for %d nodes", len(keep), g.n))
	}
	remap := make([]int, g.n)
	next := 0
	for v := 0; v < g.n; v++ {
		if keep[v] {
			remap[v] = next
			next++
		} else {
			remap[v] = -1
		}
	}
	b := NewBuilder(next)
	for u := 0; u < g.n; u++ {
		if !keep[u] {
			continue
		}
		for _, v := range g.Out(u) {
			if keep[v] {
				b.AddEdge(remap[u], remap[v])
			}
		}
	}
	sub := b.MustBuild()
	if g.labels != nil {
		labels := make([]string, next)
		for v := 0; v < g.n; v++ {
			if keep[v] {
				labels[remap[v]] = g.labels[v]
			}
		}
		sub.labels = labels
	}
	return sub, remap
}

// AddSuperSource returns a new graph with one extra node s = g.N() that has
// an edge to every node listed in roots, mirroring the construction the
// paper uses when a c-graph has several information origins. The new node's
// id is returned alongside the graph. Duplicate roots are tolerated.
func (g *Digraph) AddSuperSource(roots []int) (*Digraph, int, error) {
	s := g.n
	b := NewBuilder(g.n + 1)
	for u := 0; u < g.n; u++ {
		for _, v := range g.Out(u) {
			b.AddEdge(u, v)
		}
	}
	for _, r := range roots {
		if r < 0 || r >= g.n {
			return nil, -1, fmt.Errorf("graph: super-source root %d out of range [0,%d)", r, g.n)
		}
		b.AddEdge(s, r)
	}
	ng, err := b.Build()
	if err != nil {
		return nil, -1, err
	}
	if g.labels != nil {
		labels := append(append([]string(nil), g.labels...), "super-source")
		ng.labels = labels
	}
	return ng, s, nil
}

// DegreeStats summarizes a degree sequence.
type DegreeStats struct {
	Min, Max int
	Mean     float64
	// Zero counts the nodes with degree zero.
	Zero int
	// One counts the nodes with degree exactly one.
	One int
}

// InDegreeStats returns summary statistics of the in-degree sequence.
func (g *Digraph) InDegreeStats() DegreeStats { return g.degreeStats(g.InDegree) }

// OutDegreeStats returns summary statistics of the out-degree sequence.
func (g *Digraph) OutDegreeStats() DegreeStats { return g.degreeStats(g.OutDegree) }

func (g *Digraph) degreeStats(deg func(int) int) DegreeStats {
	st := DegreeStats{Min: 0, Max: 0}
	if g.n == 0 {
		return st
	}
	st.Min = deg(0)
	total := 0
	for v := 0; v < g.n; v++ {
		d := deg(v)
		total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		switch d {
		case 0:
			st.Zero++
		case 1:
			st.One++
		}
	}
	st.Mean = float64(total) / float64(g.n)
	return st
}

// InDegrees returns the in-degree of every node as a fresh slice.
func (g *Digraph) InDegrees() []int {
	ds := make([]int, g.n)
	for v := range ds {
		ds[v] = g.InDegree(v)
	}
	return ds
}

// OutDegrees returns the out-degree of every node as a fresh slice.
func (g *Digraph) OutDegrees() []int {
	ds := make([]int, g.n)
	for v := range ds {
		ds[v] = g.OutDegree(v)
	}
	return ds
}
