package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/gen"
	"repro/internal/graph"
)

// body is one generated graph as the program receives it: the edge-list
// text of a POST /v1/graphs upload, plus the parsed graph the harness
// keeps to pick valid requests and to recompute expected answers.
type body struct {
	name string
	text string
	json []byte // the JSON-escaped text, without quotes, for cheap per-op bodies
	g    *graph.Digraph
	topo []int // topological position of each node in g
	// inner lists the nodes with in-degree > 0: the only valid heads of
	// an added edge, since sources are pinned.
	inner []int
}

// newBody renders g as edge-list text and re-parses it, so the harness's
// copy of the graph is exactly the one the server will parse.
func newBody(name string, g *graph.Digraph) (*body, error) {
	var buf bytes.Buffer
	if err := graph.WriteEdgeList(&buf, g); err != nil {
		return nil, fmt.Errorf("render %s: %w", name, err)
	}
	text := buf.String()
	parsed, err := graph.ReadEdgeList(strings.NewReader(text))
	if err != nil {
		return nil, fmt.Errorf("re-parse %s: %w", name, err)
	}
	order, err := parsed.TopoOrder()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	esc, err := json.Marshal(text)
	if err != nil {
		return nil, err
	}
	b := &body{name: name, text: text, json: esc[1 : len(esc)-1], g: parsed,
		topo: make([]int, parsed.N())}
	for i, v := range order {
		b.topo[v] = i
	}
	for u := 0; u < parsed.N(); u++ {
		if parsed.InDegree(u) > 0 {
			b.inner = append(b.inner, u)
		}
	}
	return b, nil
}

// uploadJSON is the POST /v1/graphs body; tag, when non-empty, becomes a
// leading comment line so that every upload of one graph is a distinct
// body.
func (b *body) uploadJSON(tag string) []byte {
	var buf bytes.Buffer
	buf.Grow(len(b.json) + 64)
	buf.WriteString(`{"edges":"`)
	if tag != "" {
		buf.WriteString("# " + tag + `\n`)
	}
	buf.Write(b.json)
	buf.WriteString(`"}`)
	return buf.Bytes()
}

// dagEdge draws an edge (u, v) that keeps the graph acyclic — u precedes
// v in the original topological order — is absent from the original
// graph and from taken, and does not target a source.
func (b *body) dagEdge(rng *rand.Rand, taken map[[2]int]bool) [2]int {
	for {
		u, v := rng.Intn(b.g.N()), b.inner[rng.Intn(len(b.inner))]
		if b.topo[u] > b.topo[v] {
			u, v = v, u
			if b.g.InDegree(v) == 0 {
				continue
			}
		}
		e := [2]int{u, v}
		if u != v && !b.g.HasEdge(u, v) && !taken[e] {
			return e
		}
	}
}

// diamondChain is a chain of d diamonds: 3d+1 nodes and 2^d source-to-sink
// paths, which overflows float64 path counts for d > 1023.
func diamondChain(d int) *graph.Digraph {
	bld := graph.NewBuilder(3*d + 1)
	for i := 0; i < d; i++ {
		t := 3 * i
		bld.AddEdge(t, t+1)
		bld.AddEdge(t, t+2)
		bld.AddEdge(t+1, t+3)
		bld.AddEdge(t+2, t+3)
	}
	return bld.MustBuild()
}

// sizes scales the generated inputs; full is what the benchmark runs,
// tiny is the self-test size.
type sizes struct {
	ingestTwitter []float64 // TwitterLike scales of the ingest pool
	ingestChain   []int     // ChainDAG node counts of the ingest pool
	largeNodes    int       // powerlaw nodes of place-large
	largeKLo      int       // place-large k range [largeKLo, largeKHi]
	largeKHi      int
	fleetChain    []int     // ChainDAG node counts of the fleet
	fleetTwitter  []float64 // TwitterLike scales of the fleet
	fleetQuote    int       // QuoteLike graphs
	fleetCitation int       // CitationLike graphs
	fleetLayered  int       // Layered graphs
	diamonds      int       // diamonds in the overflow chain
}

var fullSizes = sizes{
	ingestTwitter: []float64{0.3, 0.45, 0.6, 0.75, 0.9, 1.0},
	ingestChain:   []int{25000, 40000, 55000, 70000, 80000, 90000},
	largeNodes:    200000,
	largeKLo:      16,
	largeKHi:      80,
	fleetChain:    []int{2000, 4000, 6000, 8000, 10000},
	fleetTwitter:  []float64{0.02, 0.04, 0.06, 0.08, 0.1},
	fleetQuote:    5,
	fleetCitation: 4,
	fleetLayered:  5,
	diamonds:      1100,
}

var tinySizes = sizes{
	ingestTwitter: []float64{0.01},
	ingestChain:   []int{500},
	largeNodes:    3000,
	largeKLo:      2,
	largeKHi:      5,
	fleetChain:    []int{300},
	fleetTwitter:  []float64{0.01},
	fleetQuote:    1,
	fleetCitation: 0,
	fleetLayered:  1,
	diamonds:      1100,
}

// inputs are the generated graphs of one workload.
type inputs struct {
	pool    []*body // ingest: the upload bodies
	large   *body   // place-large: the resident graph
	fleet   []*body // fleet: the resident graphs
	diamond *body   // fleet: the overflow graph
}

// generate builds a workload's inputs from the seed alone.
func generate(workload string, seed int64, sz sizes) (*inputs, error) {
	in := &inputs{}
	add := func(dst *[]*body, name string, g *graph.Digraph) error {
		b, err := newBody(name, g)
		if err == nil {
			*dst = append(*dst, b)
		}
		return err
	}
	switch workload {
	case "ingest":
		for i, s := range sz.ingestTwitter {
			g, _ := gen.TwitterLike(s, seed*1000+int64(i))
			if err := add(&in.pool, fmt.Sprintf("twitter-%g", s), g); err != nil {
				return nil, err
			}
		}
		for i, n := range sz.ingestChain {
			g, _ := gen.ChainDAG(n, 8, seed*1000+100+int64(i))
			if err := add(&in.pool, fmt.Sprintf("chain-%d", n), g); err != nil {
				return nil, err
			}
		}
	case "place-large":
		g, _ := gen.PowerLawDAG(sz.largeNodes, 6, seed)
		b, err := newBody(fmt.Sprintf("powerlaw-%d", sz.largeNodes), g)
		if err != nil {
			return nil, err
		}
		in.large = b
	case "fleet":
		s := seed * 1000
		for i := 0; i < sz.fleetQuote; i++ {
			g, _ := gen.QuoteLike(s + int64(i))
			if err := add(&in.fleet, "quote", g); err != nil {
				return nil, err
			}
		}
		for i := 0; i < sz.fleetCitation; i++ {
			g, _ := gen.CitationLike(s + 10 + int64(i))
			if err := add(&in.fleet, "citation", g); err != nil {
				return nil, err
			}
		}
		for i, sc := range sz.fleetTwitter {
			g, _ := gen.TwitterLike(sc, s+20+int64(i))
			if err := add(&in.fleet, fmt.Sprintf("twitter-%g", sc), g); err != nil {
				return nil, err
			}
		}
		for i := 0; i < sz.fleetLayered; i++ {
			g, _ := gen.Layered(6, 60+20*i, 1, 4, s+30+int64(i))
			if err := add(&in.fleet, "layered", g); err != nil {
				return nil, err
			}
		}
		for i, n := range sz.fleetChain {
			g, _ := gen.ChainDAG(n, 8, s+40+int64(i))
			if err := add(&in.fleet, fmt.Sprintf("chain-%d", n), g); err != nil {
				return nil, err
			}
		}
		b, err := newBody(fmt.Sprintf("diamond-%d", sz.diamonds), diamondChain(sz.diamonds))
		if err != nil {
			return nil, err
		}
		in.diamond = b
	default:
		return nil, fmt.Errorf("unknown workload %q (have ingest, place-large, fleet)", workload)
	}
	return in, nil
}

// graphStamp is one input's size as recorded in the report.
type graphStamp struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
	Bytes int    `json:"body_bytes"`
}

func stampOf(bs ...*body) []graphStamp {
	out := make([]graphStamp, 0, len(bs))
	for _, b := range bs {
		if b != nil {
			out = append(out, graphStamp{b.name, b.g.N(), b.g.M(), len(b.text)})
		}
	}
	return out
}
