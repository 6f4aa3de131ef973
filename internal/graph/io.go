package graph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Edge-list text format.
//
// One edge per line, "u v", whitespace separated. Lines starting with '#'
// are comments; blank lines are skipped. Node tokens may be arbitrary
// strings. A file is numeric when every token is a plain decimal id (ASCII
// digits only); its tokens are then the node ids, so files written by
// WriteEdgeList round-trip exactly. Otherwise tokens are interned in first-
// appearance order and kept as labels.
//
// ParseEdgeList reads the format in a single byte scan that parses ids
// straight into the builder's edge buffer; Build then lays out the CSR by
// counting sort. The scan hands the whole input to the general path
// (bufio.Scanner lines, strings.Fields tokens) when it meets anything it
// does not settle on its own: a token that is not a plain decimal id, a
// non-ASCII byte outside a comment (Unicode whitespace is a separator
// there), a line without exactly 2 fields, an id of more than maxIDDigits
// digits, or a line near the scanner's length limit. The general path
// makes the numeric-or-label decision for the whole file and owns every
// error text, so both paths give identical graphs and identical errors.

// maxLineBytes is the general path's bufio.Scanner token limit: longer
// lines are an error.
const maxLineBytes = 16 * 1024 * 1024

// maxIDDigits bounds the digits of an id the scan parses itself; any
// such id fits an int. Longer digit runs (leading zeros, overflow) take
// the general path, whose strconv.Atoi decides.
const maxIDDigits = 18

// Limits bounds an edge list before Build allocates anything sized by
// the largest node id, so that a tiny input such as "0 2000000000"
// cannot exhaust memory. A zero field is unbounded.
type Limits struct {
	// MaxEdges caps the edge lines, duplicates included.
	MaxEdges int
	// MaxNodeID caps the largest id of a numeric file. Label files need
	// no id cap: their ids are bounded by twice the edge count.
	MaxNodeID int
}

// check enforces l on a file of edges edge lines whose largest numeric
// id is maxID (-1 for a label file). Both parse paths call it.
func (l Limits) check(edges, maxID int) error {
	if l.MaxEdges > 0 && edges > l.MaxEdges {
		return fmt.Errorf("edge list exceeds %d edges", l.MaxEdges)
	}
	if l.MaxNodeID > 0 && maxID > l.MaxNodeID {
		return fmt.Errorf("node id %d exceeds the upload limit of %d", maxID, l.MaxNodeID)
	}
	return nil
}

// ReadEdgeList reads r to the end and parses it with ParseEdgeList,
// without limits.
func ReadEdgeList(r io.Reader) (*Digraph, error) {
	var sb strings.Builder
	if _, err := io.Copy(&sb, r); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return ParseEdgeList(sb.String(), Limits{})
}

// ParseEdgeList parses text in the edge-list format described in the
// package documentation, rejecting it when it exceeds lim.
func ParseEdgeList(text string, lim Limits) (*Digraph, error) {
	b, ok, err := scanEdgeList(text, lim)
	if err != nil {
		return nil, err
	}
	if !ok {
		return parseEdgeListGeneral(text, lim)
	}
	return b.Build()
}

// scanEdgeList is the single-scan path. It returns ok=false, and no
// error, when the input needs the general path.
func scanEdgeList(s string, lim Limits) (b *Builder, ok bool, err error) {
	maxEdges := lim.MaxEdges
	if maxEdges <= 0 {
		maxEdges = math.MaxInt
	}
	// An edge line ends at a newline or at the end of s and takes at
	// least 4 bytes ("0 1\n"), so both counts bound the buffer.
	edges := make([][2]int, 0, min(strings.Count(s, "\n")+1, len(s)/4+1, maxEdges))
	maxID := -1
	for i := 0; i < len(s); i++ {
		start := i
		i = skipBlanks(s, i)
		switch {
		case i == len(s) || s[i] == '\n':
			// blank line
		case s[i] == '#':
			if j := strings.IndexByte(s[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = len(s)
			}
		default:
			u, j := scanID(s, i)
			if j == i || j == len(s) || !isBlank(s[j]) {
				return nil, false, nil // not an id, or not followed by a second field
			}
			i = skipBlanks(s, j)
			v, j := scanID(s, i)
			if j == i {
				return nil, false, nil
			}
			i = skipBlanks(s, j)
			if i < len(s) && s[i] != '\n' {
				return nil, false, nil // a third field, or v is not an id
			}
			if len(edges) == maxEdges {
				return nil, false, lim.check(len(edges)+1, -1)
			}
			edges = append(edges, [2]int{u, v})
			maxID = max(maxID, u, v)
		}
		if i-start >= maxLineBytes-1 {
			return nil, false, nil
		}
	}
	if err := lim.check(len(edges), maxID); err != nil {
		return nil, false, err
	}
	return &Builder{n: maxID + 1, edges: edges}, true, nil
}

// scanID parses the plain decimal id at s[i:], returning it and the index
// just past it; j == i when s[i:] does not start with an id the scan
// handles (no digit, or more than maxIDDigits of them).
func scanID(s string, i int) (id, j int) {
	for j = i; j < len(s); j++ {
		d := s[j] - '0'
		if d > 9 {
			break
		}
		id = id*10 + int(d)
	}
	if j-i > maxIDDigits {
		return 0, i
	}
	return id, j
}

// isBlank reports whether c is ASCII whitespace other than the newline:
// the separators strings.Fields and strings.TrimSpace recognise below
// 0x80 ('\r' included, which bufio.ScanLines only strips at a line end).
func isBlank(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

func skipBlanks(s string, i int) int {
	for i < len(s) && isBlank(s[i]) {
		i++
	}
	return i
}

// parseEdgeListGeneral is the general path: it tokenizes every line with
// strings.Fields, then decides numeric-or-label for the whole file.
func parseEdgeListGeneral(text string, lim Limits) (*Digraph, error) {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
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
				if !isUint(f) {
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
		if err := lim.check(len(raw), b.N()-1); err != nil {
			return nil, err
		}
		return b.Build()
	}
	if err := lim.check(len(raw), -1); err != nil {
		return nil, err
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
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	g.labels = labels
	return g, nil
}

func isUint(s string) bool {
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

// ReadWeightedEdgeList parses a three-column variant of the edge-list
// format: "u v p" per line, where p ∈ [0, 1] is the relay probability of
// the edge (the probabilistic model of paper §3). Comments and blank lines
// are skipped as in ReadEdgeList; node tokens follow the same numeric/label
// rules. It returns the graph and a weight lookup suitable for
// Model.WithWeights (1.0 for edges not present, which cannot occur when the
// lookup is used with the same graph).
func ReadWeightedEdgeList(r io.Reader) (*Digraph, func(u, v int) float64, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	type rawEdge struct {
		u, v string
		p    float64
	}
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
		if len(fields) != 3 {
			return nil, nil, fmt.Errorf("graph: line %d: want 3 fields (u v p), got %d", lineNo, len(fields))
		}
		p, err := strconv.ParseFloat(fields[2], 64)
		if err != nil || p < 0 || p > 1 {
			return nil, nil, fmt.Errorf("graph: line %d: bad probability %q", lineNo, fields[2])
		}
		raw = append(raw, rawEdge{fields[0], fields[1], p})
		if numeric && (!isUint(fields[0]) || !isUint(fields[1])) {
			numeric = false
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: reading weighted edge list: %w", err)
	}

	b := NewBuilder(0)
	weights := make(map[[2]int]float64, len(raw))
	var labels []string
	intern := make(map[string]int)
	var idErr error
	id := func(tok string) int {
		if numeric {
			n, err := strconv.Atoi(tok)
			if err != nil && idErr == nil { // range overflow (isUint passed)
				idErr = fmt.Errorf("graph: node id %q out of range", tok)
			}
			return n
		}
		if i, ok := intern[tok]; ok {
			return i
		}
		i := len(labels)
		intern[tok] = i
		labels = append(labels, tok)
		return i
	}
	for _, e := range raw {
		u, v := id(e.u), id(e.v)
		if idErr != nil {
			return nil, nil, idErr
		}
		b.AddEdge(u, v)
		weights[[2]int{u, v}] = e.p
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	if !numeric {
		g.labels = labels
	}
	lookup := func(u, v int) float64 {
		if p, ok := weights[[2]int{u, v}]; ok {
			return p
		}
		return 1
	}
	return g, lookup, nil
}

// WriteEdgeList writes the graph in edge-list format. When the graph has
// labels, labels are written instead of numeric ids.
func WriteEdgeList(w io.Writer, g *Digraph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.N(), g.M()); err != nil {
		return err
	}
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Out(u) {
			var err error
			if g.HasLabels() {
				_, err = fmt.Fprintf(bw, "%s %s\n", g.Label(u), g.Label(v))
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
