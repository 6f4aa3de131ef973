package graph

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzReadEdgeList checks the parser never panics on arbitrary input, and
// that accepted inputs survive a write/read round trip.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\nalpha beta\n\nbeta gamma\n")
	f.Add("9 9\n")
	f.Add("a  b\t\n")
	f.Add("0 1 2\n")
	f.Add(strings.Repeat("1 2\n", 100))
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteEdgeList(&buf, g); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		g2, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("re-read of own output: %v", err)
		}
		if g2.M() != g.M() {
			t.Fatalf("round trip changed edge count %d → %d", g.M(), g2.M())
		}
	})
}

// FuzzEdgeListScan checks ParseEdgeList against the pre-scanner parser
// (refReadEdgeList): the same accept/reject result, reflect.DeepEqual
// graphs, labels included, and the same error text. Under small limits it
// checks that a clean input gets exactly the limit error its edge lines
// and largest id call for.
func FuzzEdgeListScan(f *testing.F) {
	for _, s := range []string{
		"0 1\n1 2\n",
		"# comment\nalpha beta\n\nbeta gamma\n",
		"1\u00a02\n",
		"+1 7000\n",
		"0 1\r\n\t2\v3\f\n  # note\n",
		"1 2 3\n",
		"1\n",
		"1 2 #x\n",
		"1 1\n",
		"0 1\n0 1\n1 0\n",
		"00000000000000000000001 2\n",
		"99999999999999999999 1\n",
		"0 1\n\xff\n",
		"0 1\n# caf\xc3\xa9\n2 3",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		if hasLargeID(input) {
			t.Skip("id too large for the unbounded reference")
		}
		want, wantErr := refReadEdgeList(strings.NewReader(input))
		got, err := ParseEdgeList(input, Limits{})
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ParseEdgeList(%q) error = %v, reference %v", input, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("ParseEdgeList(%q) = %+v, reference %+v", input, got, want)
		}

		lim := Limits{MaxEdges: 3, MaxNodeID: 20}
		got, err = ParseEdgeList(input, lim)
		if wantErr != nil {
			if err == nil {
				t.Fatalf("bounded ParseEdgeList(%q) accepted input the reference rejects", input)
			}
			return
		}
		var wantText string
		if n := edgeLines(input); n > lim.MaxEdges {
			wantText = fmt.Sprintf("edge list exceeds %d edges", lim.MaxEdges)
		} else if !want.HasLabels() && want.N()-1 > lim.MaxNodeID {
			wantText = fmt.Sprintf("node id %d exceeds the upload limit of %d", want.N()-1, lim.MaxNodeID)
		}
		switch {
		case wantText == "" && err != nil:
			t.Fatalf("bounded ParseEdgeList(%q): %v", input, err)
		case wantText == "" && !reflect.DeepEqual(got, want):
			t.Fatalf("bounded ParseEdgeList(%q) = %+v, reference %+v", input, got, want)
		case wantText != "" && (err == nil || err.Error() != wantText):
			t.Fatalf("bounded ParseEdgeList(%q) error = %v, want %q", input, err, wantText)
		}
	})
}

// hasLargeID reports whether input holds a digit run worth more than
// 9999. The reference parser has no limits, and an id like 10^12 would
// make its Build allocate terabytes; runs of 20 or more significant
// digits are kept, since they overflow and fail before any allocation.
func hasLargeID(input string) bool {
	for i := 0; i < len(input); {
		j := i
		for j < len(input) && input[j] >= '0' && input[j] <= '9' {
			j++
		}
		if sig := len(strings.TrimLeft(input[i:j], "0")); sig > 4 && sig < 20 {
			return true
		}
		i = j + 1
	}
	return false
}

// edgeLines counts the lines the edge-list format treats as edges.
func edgeLines(input string) int {
	n := 0
	for line := range strings.Lines(input) {
		line = strings.TrimSpace(line)
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}

// FuzzBuilder checks that arbitrary edge batches either build a consistent
// graph or fail cleanly (self-loops), and that the counting-sort Build
// matches the sort-based reference (refBuild) bit for bit, with and
// without parallel edges.
func FuzzBuilder(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2})
	f.Add([]byte{3, 3})
	f.Add([]byte{})
	f.Add([]byte{5, 1, 0, 2, 5, 1, 0, 1, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, parallel := range []bool{false, true} {
			b := NewBuilder(len(data) % 3)
			if parallel {
				b.AllowParallelEdges()
			}
			for i := 0; i+1 < len(data); i += 2 {
				b.AddEdge(int(data[i]%32), int(data[i+1]%32))
			}
			g, err := b.Build()
			want, wantErr := refBuild(b)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("parallel=%v: Build error = %v, reference %v", parallel, err, wantErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("parallel=%v: Build = %+v, reference %+v", parallel, g, want)
			}
			checkCSR(t, g)
		}
	})
}

// checkCSR checks that out and in adjacency agree: every edge is visible
// from both sides.
func checkCSR(t *testing.T, g *Digraph) {
	t.Helper()
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			if !slices.Contains(g.In(v), u) {
				t.Fatalf("edge (%d,%d) missing from in-adjacency", u, v)
			}
		}
	}
}
