package graph

import (
	"errors"
	"fmt"
	"sort"

	"qasom/internal/semantics"
)

// ErrBudgetExhausted is returned when the homeomorphism search exceeds
// its backtracking budget without deciding the instance.
var ErrBudgetExhausted = errors.New("graph: homeomorphism search budget exhausted")

// MatchOptions configures the extended subgraph-homeomorphism search of
// §6.2. The zero value asks for exact concept matching, data-constraint
// checking off, and default budgets.
type MatchOptions struct {
	// Ontology enables semantic vertex matching (§6.2.1); nil restricts
	// concept matching to string equality.
	Ontology *semantics.Ontology
	// AllowSubsume also accepts host concepts that generalise the
	// pattern's (weaker guarantee, more matches).
	AllowSubsume bool
	// CheckData enables the data constraints of §6.2.2: vertices interior
	// to an edge path must have their inputs covered by the outputs of
	// their path predecessors.
	CheckData bool
	// Pins forces particular vertex mappings (§6.2.3) beyond the implicit
	// initial→initial and final→final pins.
	Pins map[VertexID]VertexID
	// AllowMerge permits non-injective activity mappings: several pattern
	// activities may map onto one host activity whose concept satisfies
	// all of them, with the pattern edges between co-mapped vertices
	// absorbed into the merged activity (empty paths). This models the
	// coarser-granularity behaviours of task classes ("merged
	// activities", Ch. I §5); initial/final vertices stay bijective.
	AllowMerge bool
	// SkipPreVerify disables the §6.1 preliminary verifications (kept for
	// the ablation benchmark).
	SkipPreVerify bool
	// MaxSteps bounds backtracking steps; 0 means 1_000_000.
	MaxSteps int
}

// maxPathsPerEdge caps the alternative paths enumerated per pattern
// edge. Path length needs no cap: a simple path has fewer edges than the
// host has vertices.
const maxPathsPerEdge = 64

func (o MatchOptions) withDefaults() MatchOptions {
	if o.MaxSteps <= 0 {
		o.MaxSteps = 1_000_000
	}
	return o
}

// MatchResult reports a found homeomorphism.
type MatchResult struct {
	// Mapping sends each pattern vertex to its host image.
	Mapping map[VertexID]VertexID
	// Paths sends each pattern edge to its host path (host vertex IDs,
	// endpoints included).
	Paths map[Edge][]VertexID
	// Steps counts backtracking steps spent.
	Steps int
}

// PreVerifyReport is the outcome of the §6.1 preliminary verifications.
type PreVerifyReport struct {
	OK     bool
	Reason string
	// Candidates holds, per pattern vertex, the admissible host vertices
	// (computed as a by-product and reused by the search).
	Candidates map[VertexID][]VertexID
}

// PreVerify runs the preliminary verifications of §6.1: size feasibility,
// per-vertex candidate non-emptiness (semantic label, vertex kind, degree
// bounds, pins) and a bipartite-matching feasibility test (a necessary
// condition: an injective vertex mapping must exist ignoring edges).
func PreVerify(pattern, host *Graph, opts MatchOptions) PreVerifyReport {
	if pattern.VertexCount() == 0 {
		return PreVerifyReport{OK: false, Reason: "empty pattern"}
	}
	// Size and edge-count bounds assume injective mappings; merging can
	// shrink the image arbitrarily, so they only apply without it.
	if !opts.AllowMerge {
		if pattern.VertexCount() > host.VertexCount() {
			return PreVerifyReport{OK: false, Reason: fmt.Sprintf(
				"pattern has %d vertices, host only %d", pattern.VertexCount(), host.VertexCount())}
		}
		if pattern.EdgeCount() > host.EdgeCount() {
			return PreVerifyReport{OK: false, Reason: fmt.Sprintf(
				"pattern has %d edges, host only %d", pattern.EdgeCount(), host.EdgeCount())}
		}
	}
	cands := make(map[VertexID][]VertexID, pattern.VertexCount())
	for _, pv := range pattern.Vertices() {
		var list []VertexID
		for _, hv := range host.Vertices() {
			if admissible(pv, hv, pattern, host, opts) {
				list = append(list, hv.ID)
			}
		}
		if len(list) == 0 {
			return PreVerifyReport{OK: false, Reason: fmt.Sprintf(
				"no host candidate for pattern vertex %s", pv.Label())}
		}
		cands[pv.ID] = list
	}
	if !opts.AllowMerge && !injectiveMappingExists(pattern, cands) {
		return PreVerifyReport{OK: false, Reason: "no injective vertex mapping exists (bipartite matching infeasible)"}
	}
	return PreVerifyReport{OK: true, Candidates: cands}
}

// admissible implements the per-vertex compatibility test: kind equality,
// pin consistency, semantic label matching and the degree bounds implied
// by vertex-disjoint edge paths (every pattern edge leaving u uses a
// distinct host edge leaving the image of u).
func admissible(pv, hv *Vertex, pattern, host *Graph, opts MatchOptions) bool {
	if pv.Kind != hv.Kind {
		return false
	}
	if pin, ok := opts.Pins[pv.ID]; ok && pin != hv.ID {
		return false
	}
	// Degree bounds hold only for injective mappings: with merging, the
	// edges of co-mapped vertices collapse, so no bound applies.
	if !opts.AllowMerge {
		if host.OutDegree(hv.ID) < pattern.OutDegree(pv.ID) {
			return false
		}
		if host.InDegree(hv.ID) < pattern.InDegree(pv.ID) {
			return false
		}
	}
	return conceptMatches(pv.Concept, hv.Concept, opts)
}

func conceptMatches(required, offered semantics.ConceptID, opts MatchOptions) bool {
	if required == "" {
		return true
	}
	if opts.Ontology == nil {
		return required == offered
	}
	switch opts.Ontology.Match(required, offered) {
	case semantics.MatchExact, semantics.MatchPlugin:
		return true
	case semantics.MatchSubsume:
		return opts.AllowSubsume
	default:
		return false
	}
}

// injectiveMappingExists runs Kuhn's augmenting-path bipartite matching
// over the candidate sets and checks the matching saturates the pattern.
func injectiveMappingExists(pattern *Graph, cands map[VertexID][]VertexID) bool {
	matchOfHost := make(map[VertexID]VertexID)
	var try func(p VertexID, visited map[VertexID]bool) bool
	try = func(p VertexID, visited map[VertexID]bool) bool {
		for _, h := range cands[p] {
			if visited[h] {
				continue
			}
			visited[h] = true
			prev, taken := matchOfHost[h]
			if !taken || try(prev, visited) {
				matchOfHost[h] = p
				return true
			}
		}
		return false
	}
	for _, pv := range pattern.Vertices() {
		if !try(pv.ID, make(map[VertexID]bool)) {
			return false
		}
	}
	return true
}

// FindHomeomorphism decides whether the pattern graph is homeomorphic to
// a subgraph of the host graph under the extended semantics of §6.2: an
// injective, semantically admissible vertex mapping such that every
// pattern edge maps to a host path, all paths pairwise internally
// vertex-disjoint and avoiding mapped vertices, optionally respecting
// data constraints. With AllowMerge the injectivity requirement is
// relaxed for activity vertices (coarser-granularity hosts). The
// implicit pins initial→initial and final→final always apply when both
// graphs carry such vertices.
//
// It returns the match when found; ErrBudgetExhausted when the search
// budget ran out before deciding.
func FindHomeomorphism(pattern, host *Graph, opts MatchOptions) (*MatchResult, bool, error) {
	opts = opts.withDefaults()
	opts.Pins = withImplicitPins(pattern, host, opts.Pins)
	for p, h := range opts.Pins {
		if pattern.Vertex(p) == nil || host.Vertex(h) == nil {
			return nil, false, fmt.Errorf("graph: pin (%d→%d) references unknown vertex", int(p), int(h))
		}
	}

	var cands map[VertexID][]VertexID
	if opts.SkipPreVerify {
		cands = make(map[VertexID][]VertexID, pattern.VertexCount())
		for _, pv := range pattern.Vertices() {
			for _, hv := range host.Vertices() {
				if admissible(pv, hv, pattern, host, opts) {
					cands[pv.ID] = append(cands[pv.ID], hv.ID)
				}
			}
			if len(cands[pv.ID]) == 0 {
				return nil, false, nil
			}
		}
	} else {
		rep := PreVerify(pattern, host, opts)
		if !rep.OK {
			return nil, false, nil
		}
		cands = rep.Candidates
	}

	s := &searcher{
		pattern:  pattern,
		host:     host,
		opts:     opts,
		cands:    cands,
		mapping:  make(map[VertexID]VertexID, pattern.VertexCount()),
		imageUse: make(map[VertexID]int, host.VertexCount()),
		pathUse:  make(map[VertexID]int, host.VertexCount()),
		paths:    make(map[Edge][]VertexID, pattern.EdgeCount()),
	}
	s.planOrder()
	found, err := s.solve(0)
	if err != nil {
		return nil, false, err
	}
	if !found {
		return nil, false, nil
	}
	return &MatchResult{Mapping: s.mapping, Paths: s.paths, Steps: s.steps}, true, nil
}

func withImplicitPins(pattern, host *Graph, pins map[VertexID]VertexID) map[VertexID]VertexID {
	out := make(map[VertexID]VertexID, len(pins)+2)
	for p, h := range pins {
		out[p] = h
	}
	if pi, hi := pattern.Initial(), host.Initial(); pi != nil && hi != nil {
		if _, done := out[pi.ID]; !done {
			out[pi.ID] = hi.ID
		}
	}
	if pf, hf := pattern.Final(), host.Final(); pf != nil && hf != nil {
		if _, done := out[pf.ID]; !done {
			out[pf.ID] = hf.ID
		}
	}
	return out
}

// searcher carries the backtracking state: the partial vertex mapping,
// the host-vertex usage table (mapped images and path interiors), and
// the per-edge routed paths.
type searcher struct {
	pattern *Graph
	host    *Graph
	opts    MatchOptions
	cands   map[VertexID][]VertexID

	order   []VertexID // pattern vertices in assignment order
	edgesAt [][]Edge   // pattern edges routable once order[i] is assigned

	mapping  map[VertexID]VertexID
	imageUse map[VertexID]int // host vertex → count of pattern images on it
	pathUse  map[VertexID]int // host vertex → count of path interiors through it
	paths    map[Edge][]VertexID
	steps    int
}

// planOrder fixes the assignment order: pinned vertices first, then by
// ascending candidate count (most constrained first), ties by ID. It
// also precomputes, per position, the pattern edges whose both endpoints
// are assigned once that position is filled.
func (s *searcher) planOrder() {
	s.order = make([]VertexID, 0, s.pattern.VertexCount())
	for _, v := range s.pattern.Vertices() {
		s.order = append(s.order, v.ID)
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		va, vb := s.order[a], s.order[b]
		_, pa := s.opts.Pins[va]
		_, pb := s.opts.Pins[vb]
		if pa != pb {
			return pa
		}
		ca, cb := len(s.cands[va]), len(s.cands[vb])
		if ca != cb {
			return ca < cb
		}
		return va < vb
	})
	pos := make(map[VertexID]int, len(s.order))
	for i, v := range s.order {
		pos[v] = i
	}
	s.edgesAt = make([][]Edge, len(s.order))
	for _, e := range s.pattern.Edges() {
		later := pos[e.From]
		if pos[e.To] > later {
			later = pos[e.To]
		}
		s.edgesAt[later] = append(s.edgesAt[later], e)
	}
}

func (s *searcher) solve(i int) (bool, error) {
	if i == len(s.order) {
		return true, nil
	}
	pv := s.order[i]
	for _, hv := range s.cands[pv] {
		if s.pathUse[hv] > 0 {
			continue // a routed path already runs through this vertex
		}
		if s.imageUse[hv] > 0 {
			// Sharing an image is merging: only for activity vertices and
			// only when the options allow it (candidate admissibility
			// already checked the concepts).
			if !s.opts.AllowMerge || s.host.Vertex(hv).Kind != KindActivity ||
				s.pattern.Vertex(pv).Kind != KindActivity {
				continue
			}
		}
		s.steps++
		if s.steps > s.opts.MaxSteps {
			return false, ErrBudgetExhausted
		}
		s.mapping[pv] = hv
		s.imageUse[hv]++
		ok, err := s.routeEdges(i, 0)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		s.imageUse[hv]--
		delete(s.mapping, pv)
	}
	return false, nil
}

// routeEdges routes the j-th pending edge of position i, then recurses to
// the next edge and finally to the next vertex position. Each edge tries
// every admissible host path; on failure the path is released and the
// next alternative tried.
func (s *searcher) routeEdges(i, j int) (bool, error) {
	if j == len(s.edgesAt[i]) {
		return s.solve(i + 1)
	}
	e := s.edgesAt[i][j]
	from, to := s.mapping[e.From], s.mapping[e.To]
	if from == to {
		// Both endpoints merged onto one activity: the edge is internal
		// to it and maps to the empty path.
		s.paths[e] = []VertexID{from}
		ok, err := s.routeEdges(i, j+1)
		if err != nil || ok {
			return ok, err
		}
		delete(s.paths, e)
		return false, nil
	}
	paths := s.enumeratePaths(from, to)
	for _, p := range paths {
		s.steps++
		if s.steps > s.opts.MaxSteps {
			return false, ErrBudgetExhausted
		}
		s.reservePath(e, p)
		ok, err := s.routeEdges(i, j+1)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
		s.releasePath(e, p)
	}
	return false, nil
}

func (s *searcher) reservePath(e Edge, p []VertexID) {
	s.paths[e] = p
	for _, v := range p[1 : len(p)-1] {
		s.pathUse[v]++
	}
}

func (s *searcher) releasePath(e Edge, p []VertexID) {
	delete(s.paths, e)
	for _, v := range p[1 : len(p)-1] {
		s.pathUse[v]--
	}
}

// enumeratePaths lists simple host paths from a to b whose interior
// avoids every used host vertex, shortest first, at most maxPathsPerEdge.
// Paths failing the data constraints are dropped.
func (s *searcher) enumeratePaths(a, b VertexID) [][]VertexID {
	var out [][]VertexID
	prefix := []VertexID{a}
	onPath := map[VertexID]bool{a: true}
	var dfs func(cur VertexID)
	dfs = func(cur VertexID) {
		if len(out) >= maxPathsPerEdge {
			return
		}
		for _, next := range s.host.OutNeighbors(cur) {
			if len(out) >= maxPathsPerEdge {
				return
			}
			if next == b {
				p := make([]VertexID, len(prefix)+1)
				copy(p, prefix)
				p[len(prefix)] = b
				if !s.opts.CheckData || s.pathDataOK(p) {
					out = append(out, p)
				}
				continue
			}
			// Interior vertices must be free: neither the image of a
			// mapped vertex nor interior to another path.
			if onPath[next] || s.imageUse[next] > 0 || s.pathUse[next] > 0 {
				continue
			}
			onPath[next] = true
			prefix = append(prefix, next)
			dfs(next)
			prefix = prefix[:len(prefix)-1]
			delete(onPath, next)
		}
	}
	dfs(a)
	sort.SliceStable(out, func(i, j int) bool { return len(out[i]) < len(out[j]) })
	return out
}

// pathDataOK checks the data constraints of §6.2.2 on one routed path:
// walking the path, every interior vertex must have each of its inputs
// covered by an output of some earlier vertex on the path (semantic
// coverage when an ontology is configured).
func (s *searcher) pathDataOK(p []VertexID) bool {
	available := make([]semantics.ConceptID, 0, 8)
	available = append(available, s.host.Vertex(p[0]).Outputs...)
	for idx := 1; idx < len(p)-1; idx++ {
		v := s.host.Vertex(p[idx])
		for _, in := range v.Inputs {
			if !covered(in, available, s.opts) {
				return false
			}
		}
		available = append(available, v.Outputs...)
	}
	return true
}

func covered(required semantics.ConceptID, available []semantics.ConceptID, opts MatchOptions) bool {
	for _, offered := range available {
		if conceptMatches(required, offered, opts) {
			return true
		}
	}
	return false
}
