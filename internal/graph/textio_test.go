package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestDIMACSRoundTrip(t *testing.T) {
	g := randomGraph(t, 100, 400, 5)
	var buf bytes.Buffer
	if err := g.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, got) {
		t.Error("DIMACS round trip differs")
	}
}

func TestDIMACSFormatShape(t *testing.T) {
	g, err := FromEdges(3, []Edge{{Src: 0, Dst: 2}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "p sp 3 1") {
		t.Errorf("missing problem line in %q", out)
	}
	if !strings.Contains(out, "a 1 3 1") {
		t.Errorf("missing 1-based edge in %q", out)
	}
}

func TestReadDIMACSAcceptsCommentsAndWeights(t *testing.T) {
	in := `c a comment
c another
p sp 4 2
a 1 2 7
a 4 1 3
`
	g, err := ReadDIMACS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 4 || g.NumEdges() != 2 {
		t.Fatalf("got %d vertices %d edges", g.NumVertices(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(3, 0) {
		t.Error("edges misread")
	}
}

func TestReadDIMACSRejectsMalformed(t *testing.T) {
	bad := []string{
		"a 1 2 1\n",                     // edge before problem line
		"p sp 2 1\np sp 2 1\na 1 2 1\n", // duplicate problem line
		"p sp 2 1\na 1 3 1\n",           // endpoint beyond n
		"p sp 2 1\na 0 1 1\n",           // 0 endpoint in 1-based format
		"p sp 2 2\na 1 2 1\n",           // edge count mismatch
		"p sp 2\na 1 2 1\n",             // short problem line
		"p sp 2 1\nx 1 2\n",             // unknown record
		"p sp 2 1\na one 2 1\n",         // non-numeric
		"",                              // empty
		"p sp -1 0\n",                   // negative n
	}
	for _, in := range bad {
		if _, err := ReadDIMACS(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed input %q", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := randomGraph(t, 50, 200, 6)
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !sameGraph(g, got) {
		t.Error("edge list round trip differs")
	}
}

func TestEdgeListPreservesIsolatedTail(t *testing.T) {
	// Vertex 9 is isolated; without the header it would be dropped.
	g, err := FromEdges(10, []Edge{{Src: 0, Dst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumVertices() != 10 {
		t.Errorf("NumVertices = %d, want 10", got.NumVertices())
	}
}

func TestReadEdgeListWithoutHeader(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("0 5\n2 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 {
		t.Errorf("NumVertices = %d, want 6 (1 + max id)", g.NumVertices())
	}
	if !g.HasEdge(0, 5) || !g.HasEdge(2, 3) {
		t.Error("edges misread")
	}
}

func TestReadEdgeListRejectsMalformed(t *testing.T) {
	bad := []string{
		"0\n",                 // one field
		"0 x\n",               // non-numeric
		"-1 2\n",              // negative
		"# vertices 2\n0 5\n", // endpoint beyond declared count
		"# vertices -4\n",     // bad header
	}
	for _, in := range bad {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("accepted malformed input %q", in)
		}
	}
}

func TestReadEdgeListSkipsCommentsAndBlanks(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# a comment\n\n0 1\n\n# more\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}
}
