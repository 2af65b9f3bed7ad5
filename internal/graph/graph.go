// Package graph implements the behavioural-graph layer of QASOM's
// adaptation framework (Chapter V): directed labelled graphs, the
// transformation from user tasks to behavioural graphs (including the
// loop simplification of Fig. V.4), the preliminary verifications of
// §6.1, and the extended vertex-disjoint subgraph-homeomorphism
// determination of §6.2 with semantic vertex matching, data constraints
// and pinned vertex mappings.
package graph

import (
	"fmt"
	"sort"
	"strings"

	"qasom/internal/semantics"
)

// VertexID identifies a vertex within one graph.
type VertexID int

// VertexKind distinguishes structural vertices from activity vertices.
type VertexKind int

// Vertex kinds.
const (
	// KindActivity is a vertex carrying an abstract activity.
	KindActivity VertexKind = iota + 1
	// KindInitial is the unique source vertex of a behavioural graph.
	KindInitial
	// KindFinal is the unique sink vertex of a behavioural graph.
	KindFinal
)

// String returns the conventional kind name.
func (k VertexKind) String() string {
	switch k {
	case KindActivity:
		return "activity"
	case KindInitial:
		return "initial"
	case KindFinal:
		return "final"
	default:
		return fmt.Sprintf("VertexKind(%d)", int(k))
	}
}

// Vertex is one node of a behavioural graph.
type Vertex struct {
	// ID is the vertex identifier within its graph.
	ID VertexID
	// Kind distinguishes initial/final markers from activities.
	Kind VertexKind
	// ActivityID is the originating task activity (activities only).
	ActivityID string
	// Concept is the functional capability label used for semantic
	// vertex matching.
	Concept semantics.ConceptID
	// Inputs and Outputs are the data concepts consumed and produced;
	// they drive the data constraints of §6.2.2.
	Inputs  []semantics.ConceptID
	Outputs []semantics.ConceptID
	// LoopDepth counts how many simplified loops enclose the vertex
	// (Fig. V.4 annotation).
	LoopDepth int
}

// Label returns a printable identity for the vertex.
func (v *Vertex) Label() string {
	switch v.Kind {
	case KindInitial:
		return "⊤"
	case KindFinal:
		return "⊥"
	default:
		if v.ActivityID != "" {
			return v.ActivityID
		}
		return fmt.Sprintf("v%d", int(v.ID))
	}
}

// Edge is a directed edge between two vertices of the same graph.
type Edge struct {
	From, To VertexID
}

// Graph is a simple directed graph (no parallel edges, no self-loops)
// with labelled vertices. The zero value is an empty graph ready for use.
// Graph is not safe for concurrent mutation.
type Graph struct {
	vertices []*Vertex
	out      map[VertexID][]VertexID
	in       map[VertexID][]VertexID
	edges    int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		out: make(map[VertexID][]VertexID),
		in:  make(map[VertexID][]VertexID),
	}
}

// AddVertex appends a vertex and returns its assigned ID. The caller's
// ID field is overwritten.
func (g *Graph) AddVertex(v *Vertex) VertexID {
	if g.out == nil {
		g.out = make(map[VertexID][]VertexID)
		g.in = make(map[VertexID][]VertexID)
	}
	id := VertexID(len(g.vertices))
	v.ID = id
	g.vertices = append(g.vertices, v)
	return id
}

// AddEdge inserts the directed edge u→v, rejecting self-loops, unknown
// endpoints and duplicates (duplicates are ignored silently: the
// transformation from tasks naturally produces some).
func (g *Graph) AddEdge(u, v VertexID) error {
	if !g.has(u) || !g.has(v) {
		return fmt.Errorf("graph: edge (%d,%d) references unknown vertex", int(u), int(v))
	}
	if u == v {
		return fmt.Errorf("graph: self-loop on vertex %d", int(u))
	}
	if g.HasEdge(u, v) {
		return nil
	}
	g.out[u] = append(g.out[u], v)
	g.in[v] = append(g.in[v], u)
	g.edges++
	return nil
}

func (g *Graph) has(id VertexID) bool {
	return id >= 0 && int(id) < len(g.vertices)
}

// HasEdge reports whether the edge u→v exists.
func (g *Graph) HasEdge(u, v VertexID) bool {
	for _, w := range g.out[u] {
		if w == v {
			return true
		}
	}
	return false
}

// Vertex returns the vertex with the given ID, or nil.
func (g *Graph) Vertex(id VertexID) *Vertex {
	if !g.has(id) {
		return nil
	}
	return g.vertices[id]
}

// VertexCount returns the number of vertices.
func (g *Graph) VertexCount() int { return len(g.vertices) }

// EdgeCount returns the number of edges.
func (g *Graph) EdgeCount() int { return g.edges }

// Vertices returns the vertices in ID order. The slice is shared; do not
// mutate it.
func (g *Graph) Vertices() []*Vertex { return g.vertices }

// Edges returns all edges sorted by (From, To).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for u := range g.vertices {
		for _, v := range g.out[VertexID(u)] {
			out = append(out, Edge{VertexID(u), v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// OutNeighbors returns the successors of u. The slice is shared; do not
// mutate it.
func (g *Graph) OutNeighbors(u VertexID) []VertexID { return g.out[u] }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u VertexID) int { return len(g.out[u]) }

// InDegree returns the in-degree of u.
func (g *Graph) InDegree(u VertexID) int { return len(g.in[u]) }

// Initial returns the first vertex of kind KindInitial, or nil.
func (g *Graph) Initial() *Vertex { return g.firstOfKind(KindInitial) }

// Final returns the first vertex of kind KindFinal, or nil.
func (g *Graph) Final() *Vertex { return g.firstOfKind(KindFinal) }

func (g *Graph) firstOfKind(k VertexKind) *Vertex {
	for _, v := range g.vertices {
		if v.Kind == k {
			return v
		}
	}
	return nil
}

// ActivityVertices returns the activity vertices in ID order.
func (g *Graph) ActivityVertices() []*Vertex {
	var out []*Vertex
	for _, v := range g.vertices {
		if v.Kind == KindActivity {
			out = append(out, v)
		}
	}
	return out
}

// TopoSort returns a topological order of the vertices and reports
// whether the graph is acyclic.
func (g *Graph) TopoSort() ([]VertexID, bool) {
	indeg := make([]int, len(g.vertices))
	for u := range g.vertices {
		for range g.in[VertexID(u)] {
			indeg[u]++
		}
	}
	queue := make([]VertexID, 0, len(g.vertices))
	for u := range g.vertices {
		if indeg[u] == 0 {
			queue = append(queue, VertexID(u))
		}
	}
	order := make([]VertexID, 0, len(g.vertices))
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		for _, v := range g.out[u] {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	return order, len(order) == len(g.vertices)
}

// Reachable reports whether v is reachable from u (u is reachable from
// itself).
func (g *Graph) Reachable(u, v VertexID) bool {
	if u == v {
		return true
	}
	seen := make([]bool, len(g.vertices))
	stack := []VertexID{u}
	seen[u] = true
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.out[cur] {
			if w == v {
				return true
			}
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// String renders the graph as "label -> label" lines in edge order, for
// debugging and test failure messages.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "graph(%d vertices, %d edges)\n", g.VertexCount(), g.EdgeCount())
	for _, e := range g.Edges() {
		fmt.Fprintf(&b, "  %s -> %s\n", g.vertices[e.From].Label(), g.vertices[e.To].Label())
	}
	return b.String()
}
