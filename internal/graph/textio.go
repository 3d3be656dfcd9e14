package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text interchange formats. The paper generates workloads with the
// GTgraph suite, which emits DIMACS-style edge lists; supporting that
// format lets this library consume GTgraph output directly and exchange
// graphs with other BFS implementations.
//
// DIMACS format:
//
//	c comment lines
//	p sp <vertices> <edges>
//	a <src> <dst> [weight]     (1-based vertex ids; weight ignored)
//
// Plain edge-list format: one "src dst" pair per line (0-based),
// optionally preceded by a "# vertices <n>" header; without the header
// the vertex count is 1 + the largest endpoint.
//
// Both text parsers cap the vertex count at TextMaxVertices: a text
// file is impractical at larger scales anyway, and an untrusted input
// must not be able to demand a multi-gigabyte offsets array with a
// one-line header (or a single edge naming a huge vertex id). Use the
// binary format for paper-scale graphs.

// TextMaxVertices bounds the vertex count the text parsers accept.
const TextMaxVertices = 1 << 26

// WriteDIMACS writes the graph in DIMACS .gr format (1-based ids, unit
// weights).
func (g *Graph) WriteDIMACS(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "c generated by mcbfs\np sp %d %d\n", g.NumVertices(), g.NumEdges()); err != nil {
		return fmt.Errorf("graph: writing DIMACS header: %w", err)
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(Vertex(u)) {
			if _, err := fmt.Fprintf(bw, "a %d %d 1\n", u+1, v+1); err != nil {
				return fmt.Errorf("graph: writing DIMACS edge: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadDIMACS reads a graph in DIMACS .gr format.
func ReadDIMACS(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		n, m   int64
		sawP   bool
		edges  []Edge
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == 'c' {
			continue
		}
		switch line[0] {
		case 'p':
			if sawP {
				return nil, fmt.Errorf("graph: line %d: duplicate problem line", lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed problem line %q", lineNo, line)
			}
			var err1, err2 error
			n, err1 = strconv.ParseInt(fields[2], 10, 64)
			m, err2 = strconv.ParseInt(fields[3], 10, 64)
			if err1 != nil || err2 != nil || n < 0 || m < 0 || n > TextMaxVertices {
				return nil, fmt.Errorf("graph: line %d: bad sizes in %q (text format caps vertices at %d)", lineNo, line, int64(TextMaxVertices))
			}
			sawP = true
			// The header's edge count is untrusted input: cap the
			// pre-allocation so a malicious header cannot demand
			// gigabytes before a single edge is read.
			capHint := m
			if capHint > 1<<20 {
				capHint = 1 << 20
			}
			edges = make([]Edge, 0, capHint)
		case 'a':
			if !sawP {
				return nil, fmt.Errorf("graph: line %d: edge before problem line", lineNo)
			}
			fields := strings.Fields(line)
			if len(fields) < 3 {
				return nil, fmt.Errorf("graph: line %d: malformed edge %q", lineNo, line)
			}
			u, err1 := strconv.ParseInt(fields[1], 10, 64)
			v, err2 := strconv.ParseInt(fields[2], 10, 64)
			if err1 != nil || err2 != nil || u < 1 || v < 1 || u > n || v > n {
				return nil, fmt.Errorf("graph: line %d: bad endpoints in %q", lineNo, line)
			}
			edges = append(edges, Edge{Src: Vertex(u - 1), Dst: Vertex(v - 1)})
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", lineNo, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading DIMACS: %w", err)
	}
	if !sawP {
		return nil, fmt.Errorf("graph: no problem line")
	}
	if int64(len(edges)) != m {
		return nil, fmt.Errorf("graph: header promises %d edges, found %d", m, len(edges))
	}
	return FromEdges(int(n), edges)
}

// WriteEdgeList writes the graph as a plain 0-based edge list with a
// "# vertices <n>" header (so isolated tail vertices survive the round
// trip).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "# vertices %d\n", g.NumVertices()); err != nil {
		return fmt.Errorf("graph: writing edge list header: %w", err)
	}
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(Vertex(u)) {
			if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
				return fmt.Errorf("graph: writing edge: %w", err)
			}
		}
	}
	return bw.Flush()
}

// ReadEdgeList reads a plain 0-based edge list, accepting "#"-prefixed
// comments and an optional "# vertices <n>" header.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var (
		edges  []Edge
		n      int64 = -1
		maxID  int64 = -1
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line[0] == '#' {
			fields := strings.Fields(line)
			if len(fields) == 3 && fields[1] == "vertices" {
				v, err := strconv.ParseInt(fields[2], 10, 64)
				if err != nil || v < 0 || v > TextMaxVertices {
					return nil, fmt.Errorf("graph: line %d: bad vertex count %q (text format caps vertices at %d)", lineNo, line, int64(TextMaxVertices))
				}
				n = v
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: malformed edge %q", lineNo, line)
		}
		u, err1 := strconv.ParseInt(fields[0], 10, 64)
		v, err2 := strconv.ParseInt(fields[1], 10, 64)
		if err1 != nil || err2 != nil || u < 0 || v < 0 || u >= TextMaxVertices || v >= TextMaxVertices {
			return nil, fmt.Errorf("graph: line %d: bad endpoints %q (text format caps vertices at %d)", lineNo, line, int64(TextMaxVertices))
		}
		if u > maxID {
			maxID = u
		}
		if v > maxID {
			maxID = v
		}
		edges = append(edges, Edge{Src: Vertex(u), Dst: Vertex(v)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	if n < 0 {
		n = maxID + 1
	}
	if maxID >= n {
		return nil, fmt.Errorf("graph: endpoint %d exceeds declared vertex count %d", maxID, n)
	}
	return FromEdges(int(n), edges)
}
