package graph_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestGeneratorRoundTrip writes graphs shaped like the service's upload
// traffic (twitter-like cascades and relay chains of 25k-90k nodes) as
// edge lists and parses them back: the scanner must return the generated
// graph bit for bit, and the same graph as the reference parser.
func TestGeneratorRoundTrip(t *testing.T) {
	scales := []float64{0.3, 0.45, 0.6, 0.75, 0.9, 1.0}
	chains := []int{25000, 40000, 55000, 70000, 80000, 90000}
	if testing.Short() {
		scales, chains = scales[:1], chains[:1]
	}
	var graphs []*graph.Digraph
	var names []string
	for i, s := range scales {
		g, _ := gen.TwitterLike(s, 1000+int64(i))
		graphs, names = append(graphs, g), append(names, fmt.Sprintf("twitter-%g", s))
	}
	for i, n := range chains {
		g, _ := gen.ChainDAG(n, 8, 1100+int64(i))
		graphs, names = append(graphs, g), append(names, fmt.Sprintf("chain-%d", n))
	}
	for i, g := range graphs {
		var buf bytes.Buffer
		if err := graph.WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", names[i], err)
		}
		text := buf.String()
		got, err := graph.ParseEdgeList(text, graph.Limits{})
		if err != nil {
			t.Fatalf("%s: parse: %v", names[i], err)
		}
		if !reflect.DeepEqual(got, g) {
			t.Errorf("%s: parsed graph differs from the generated one", names[i])
		}
		want, err := graph.RefReadEdgeList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: reference parse: %v", names[i], err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: parsed graph differs from the reference parser's", names[i])
		}
	}
}
