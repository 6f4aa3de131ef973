package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Reference implementations for the differential tests: the edge-list
// parser and the sort-based CSR build as they were before the one-pass
// scanner and the counting-sort build replaced them. The bodies are
// verbatim except that they call each other (refBuild, refIsUint) instead
// of the production functions, so a defect in the new code cannot leak
// into the reference.

// refReadEdgeList is the pre-scanner ReadEdgeList.
func refReadEdgeList(r io.Reader) (*Digraph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	type rawEdge struct{ u, v string }
	var raw []rawEdge
	numeric := true
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("graph: line %d: want 2 fields, got %d", lineNo, len(fields))
		}
		raw = append(raw, rawEdge{fields[0], fields[1]})
		if numeric {
			for _, f := range fields {
				if !refIsUint(f) {
					numeric = false
					break
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}

	b := NewBuilder(0)
	if numeric {
		for _, e := range raw {
			u, uerr := strconv.Atoi(e.u)
			v, verr := strconv.Atoi(e.v)
			if uerr != nil || verr != nil {
				// isUint accepted the digits, so only range overflow
				// lands here; silently wrapping would corrupt the ids.
				return nil, fmt.Errorf("graph: node id out of range in edge %q %q", e.u, e.v)
			}
			b.AddEdge(u, v)
		}
		return refBuild(b)
	}
	intern := make(map[string]int)
	var labels []string
	id := func(tok string) int {
		if i, ok := intern[tok]; ok {
			return i
		}
		i := len(labels)
		intern[tok] = i
		labels = append(labels, tok)
		return i
	}
	for _, e := range raw {
		b.AddEdge(id(e.u), id(e.v))
	}
	g, err := refBuild(b)
	if err != nil {
		return nil, err
	}
	g.labels = labels
	return g, nil
}

func refIsUint(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// refBuild is the pre-counting-sort Builder.Build.
func refBuild(b *Builder) (*Digraph, error) {
	for _, e := range b.edges {
		if e[0] == e[1] {
			return nil, fmt.Errorf("graph: self-loop at node %d", e[0])
		}
	}
	es := append([][2]int(nil), b.edges...)
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	if !b.allowParallel {
		es = refDedupeEdges(es)
	}

	g := &Digraph{n: b.n}
	g.outOff = make([]int, b.n+1)
	g.outAdj = make([]int, len(es))
	for _, e := range es {
		g.outOff[e[0]+1]++
	}
	for v := 0; v < b.n; v++ {
		g.outOff[v+1] += g.outOff[v]
	}
	fill := make([]int, b.n)
	for _, e := range es {
		g.outAdj[g.outOff[e[0]]+fill[e[0]]] = e[1]
		fill[e[0]]++
	}

	// In-CSR: counting sort of the same edge set keyed by target. A second
	// pass keyed by (v, u) keeps each in-adjacency list sorted because the
	// primary sort above already ordered sources ascending.
	g.inOff = make([]int, b.n+1)
	g.inAdj = make([]int, len(es))
	for _, e := range es {
		g.inOff[e[1]+1]++
	}
	for v := 0; v < b.n; v++ {
		g.inOff[v+1] += g.inOff[v]
	}
	for i := range fill {
		fill[i] = 0
	}
	for _, e := range es {
		g.inAdj[g.inOff[e[1]]+fill[e[1]]] = e[0]
		fill[e[1]]++
	}
	return g, nil
}

func refDedupeEdges(es [][2]int) [][2]int {
	if len(es) == 0 {
		return es
	}
	out := es[:1]
	for _, e := range es[1:] {
		if e != out[len(out)-1] {
			out = append(out, e)
		}
	}
	return out
}
