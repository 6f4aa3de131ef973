package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable Digraph. The zero
// value is a builder for an empty graph; NewBuilder pre-sizes it for a known
// node count. Builders are not safe for concurrent use.
type Builder struct {
	n     int
	edges [][2]int
	// allowParallel keeps duplicate (u,v) edges instead of collapsing them.
	// The propagation model treats parallel edges as independent relay
	// channels; the paper's graphs are simple, so collapsing is the default.
	allowParallel bool
}

// NewBuilder returns a Builder for a graph with n nodes. More nodes may be
// added later with Grow or implicitly by AddEdge.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// AllowParallelEdges configures the builder to keep duplicate edges rather
// than collapsing them. It returns the builder for chaining.
func (b *Builder) AllowParallelEdges() *Builder {
	b.allowParallel = true
	return b
}

// N returns the current number of nodes.
func (b *Builder) N() int { return b.n }

// Grow ensures the graph has at least n nodes.
func (b *Builder) Grow(n int) {
	if n > b.n {
		b.n = n
	}
}

// AddNode appends a fresh node and returns its id.
func (b *Builder) AddNode() int {
	b.n++
	return b.n - 1
}

// AddEdge records the directed edge (u, v), growing the node count if
// needed. Self-loops are recorded as given; Build rejects them because the
// propagation model has no meaningful interpretation for a node relaying to
// itself.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: negative node id in edge (%d,%d)", u, v))
	}
	if u >= b.n {
		b.n = u + 1
	}
	if v >= b.n {
		b.n = v + 1
	}
	b.edges = append(b.edges, [2]int{u, v})
}

// AddEdges records a batch of directed edges.
func (b *Builder) AddEdges(edges [][2]int) {
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
}

// Build assembles the immutable Digraph. Unless AllowParallelEdges was
// called, duplicate edges are collapsed. Build returns an error when a
// self-loop is present.
//
// The out-CSR is a counting sort of the edges by source. A row is sorted
// only when it is not already ascending, so edge lists written in source
// order (WriteEdgeList output, most parsed files) never sort, and
// duplicates are dropped in place. The in-CSR transposes the out-rows in
// ascending source order, which leaves every in-row ascending too.
func (b *Builder) Build() (*Digraph, error) {
	n := b.n
	outOff := make([]int, n+1)
	for _, e := range b.edges {
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self-loop at node %d", e[0])
		}
		outOff[e[0]+1]++
	}
	prefixSum(outOff)
	outAdj := make([]int, len(b.edges))
	// The offsets double as fill cursors: after the scatter, outOff[u]
	// has advanced to the end of row u, i.e. to the start of row u+1.
	for _, e := range b.edges {
		outAdj[outOff[e[0]]] = e[1]
		outOff[e[0]]++
	}
	unshift(outOff)

	m := 0
	for u := 0; u < n; u++ {
		row := outAdj[outOff[u]:outOff[u+1]]
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
		outOff[u] = m
		if b.allowParallel {
			m += len(row) // rows stay in place: nothing is dropped
			continue
		}
		start := m
		for _, v := range row {
			if m == start || outAdj[m-1] != v {
				outAdj[m] = v
				m++
			}
		}
	}
	outOff[n] = m
	outAdj = outAdj[:m]

	inOff := make([]int, n+1)
	for _, v := range outAdj {
		inOff[v+1]++
	}
	prefixSum(inOff)
	inAdj := make([]int, m)
	for u := 0; u < n; u++ {
		for _, v := range outAdj[outOff[u]:outOff[u+1]] {
			inAdj[inOff[v]] = u
			inOff[v]++
		}
	}
	unshift(inOff)
	return &Digraph{n: n, outOff: outOff, outAdj: outAdj, inOff: inOff, inAdj: inAdj}, nil
}

// prefixSum turns per-row counts stored at off[v+1] into row offsets.
func prefixSum(off []int) {
	for v := 1; v < len(off); v++ {
		off[v] += off[v-1]
	}
}

// unshift restores row offsets after a scatter that used them as fill
// cursors: each off[v] then holds the start of row v+1.
func unshift(off []int) {
	copy(off[1:], off[:len(off)-1])
	off[0] = 0
}

// MustBuild is Build for graphs known to be well-formed; it panics on error.
func (b *Builder) MustBuild() *Digraph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph with n nodes from an explicit edge list. It is a
// convenience wrapper over Builder for tests and examples.
func FromEdges(n int, edges [][2]int) (*Digraph, error) {
	b := NewBuilder(n)
	b.AddEdges(edges)
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(n int, edges [][2]int) *Digraph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
