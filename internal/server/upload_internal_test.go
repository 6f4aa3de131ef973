package server

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// refCheckEdgeListBounds is the upload pre-scan that ran before the
// parser enforced the limits itself, kept verbatim as the reference for
// TestUploadBoundsMatchReference.
func refCheckEdgeListBounds(text string) error {
	edges, maxID, numeric := 0, 0, true
	for line := range strings.Lines(text) {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		edges++
		if edges > maxUploadEdges {
			return fmt.Errorf("edge list exceeds %d edges", maxUploadEdges)
		}
		for _, tok := range strings.Fields(line) {
			n, err := strconv.Atoi(tok)
			if err != nil || n < 0 {
				numeric = false
				continue
			}
			maxID = max(maxID, n)
		}
	}
	if numeric && maxID > maxUploadNodeID {
		return fmt.Errorf("node id %d exceeds the upload limit of %d", maxID, maxUploadNodeID)
	}
	return nil
}

// TestUploadBoundsMatchReference checks GraphSpec.Build against the old
// pre-scan followed by an unbounded parse. They agree on every input but
// one kind: a file whose tokens strconv.Atoi reads as numbers although
// one is not a plain decimal id ("+1"). The pre-scan judged such a file
// numeric and capped its ids; the parser reads it as labels, which have
// no id cap, and now so does the bound.
func TestUploadBoundsMatchReference(t *testing.T) {
	over := strconv.Itoa(maxUploadNodeID + 1)
	for _, in := range []string{
		diamondText,
		"# a comment\n0 " + over + "\n",
		"x " + over + "\n",
		"+1 7000000\n",
		"-0 " + over + "\n",
		"0 99999999999999999999\n",
		"1 2 3\n",
		"0 0\n",
	} {
		spec := GraphSpec{Edges: in}
		got, _, err := spec.Build()
		wantErr := refCheckEdgeListBounds(in)
		var want *graph.Digraph
		if wantErr == nil {
			want, wantErr = graph.ReadEdgeList(strings.NewReader(in))
		}
		if err == nil && wantErr != nil && got.HasLabels() &&
			strings.HasPrefix(wantErr.Error(), "node id ") {
			continue // the label-mode fix
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%.30q: error = %v, reference %v", in, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Errorf("%.30q: graph differs from the reference", in)
		}
	}
}

const diamondText = "0 1\n0 2\n1 3\n2 3\n3 4\n"

// TestUploadEdgeLimit covers the edge bound at its boundary; it counts
// edge lines, duplicates included, and not comments.
func TestUploadEdgeLimit(t *testing.T) {
	body := "# header\n" + strings.Repeat("0 1\n", maxUploadEdges)
	if _, _, err := (&GraphSpec{Edges: body}).Build(); err != nil {
		t.Fatalf("%d edges: %v", maxUploadEdges, err)
	}
	_, _, err := (&GraphSpec{Edges: body + "1 2\n"}).Build()
	if want := fmt.Sprintf("edge list exceeds %d edges", maxUploadEdges); fmt.Sprint(err) != want {
		t.Errorf("%d edges: error = %v, want %q", maxUploadEdges+1, err, want)
	}
}
