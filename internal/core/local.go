package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"sync"

	"qasom/internal/cluster"
	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/sortx"
)

// localScratch bundles the transient working buffers of one localSelect
// run — the clustering scratch, the normalizer population view, the
// per-property score column, the rank matrix and the sort permutation.
// Everything in it is fully overwritten before use and nothing escapes
// the call, so pooled reuse cannot change results; only Scores (retained
// by the returned RankedCandidates) is allocated fresh, as a single
// backing array.
type localScratch struct {
	cl        cluster.Scratch
	vecs      []qos.Vector
	values    []float64
	ranks     [][]int
	ranksBack []int
	perm      []int32
}

var localScratchPool = sync.Pool{New: func() any { return new(localScratch) }}

// RankedCandidate is one service after the local selection phase: its
// normalized scores, utility, and its position in the QoS level/class
// structure of §3.2 (Level is the best cluster rank r* the service
// reaches on any property; ClassSize is e, the number of properties
// whose cluster has that rank — the service belongs to QoS class
// QC_{r*,e}).
type RankedCandidate struct {
	// Service is the candidate's frozen registry description, shared
	// read-only (see registry.Candidate).
	Service *registry.Description
	// Vector is the raw advertised QoS vector.
	Vector qos.Vector
	// Scores is the direction-adjusted normalized vector ([0,1], 1 best).
	Scores qos.Vector
	// Utility is the weighted utility of Scores.
	Utility float64
	// Level is the service's QoS level r* (1 = best).
	Level int
	// ClassSize is e: how many properties sit in rank-r* clusters.
	ClassSize int
}

// LocalResult is the outcome of the local phase for one activity: the
// candidates ordered best-first by (Level asc, ClassSize desc, Utility
// desc), plus the number of levels produced by the clustering. It names
// no activity: the caller keys it, and activities that see the same
// candidate list and weights may share one result. A result the local
// phase computed also keeps the normalizer it scored with, so the
// global phase's Evaluator reuses it, and the engine reuses every
// Utility, instead of normalizing and scoring the population again.
// Results built elsewhere (a remote device's) carry none.
type LocalResult struct {
	Ranked []RankedCandidate
	Levels int

	nz *qos.Normalizer // the population's normalizer; shared read-only
}

// Candidate converts a ranked entry back to a registry candidate.
func (rc *RankedCandidate) Candidate() registry.Candidate {
	return registry.Candidate{Service: rc.Service, Vector: rc.Vector}
}

// localSelect runs the local selection phase of QASSA for one activity
// (§3.2): min–max normalize the candidate population, cluster each
// property's scores into K ranked clusters with K-means, grade every
// service into its QoS level and class, and emit the ranked shortlist.
func localSelect(activityID string, cands []registry.Candidate, ps *qos.PropertySet,
	weights qos.Weights, k int, seeding cluster.Seeding, rng *rand.Rand) (*LocalResult, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("core: activity %q has no candidates", activityID)
	}
	if k < 1 {
		k = 1
	}
	scr := localScratchPool.Get().(*localScratch)
	defer localScratchPool.Put(scr)
	if cap(scr.vecs) < len(cands) {
		scr.vecs = make([]qos.Vector, len(cands))
	}
	vecs := scr.vecs[:len(cands)]
	for i, c := range cands {
		vecs[i] = c.Vector
	}
	nz, err := qos.NewNormalizer(ps, vecs)
	if err != nil {
		return nil, fmt.Errorf("core: activity %q: %w", activityID, err)
	}

	// Scores are retained by the result; one backing array for them all.
	scoresBack := make([]float64, len(cands)*ps.Len())
	ranked := make([]RankedCandidate, len(cands))
	for i, c := range cands {
		scores := qos.Vector(scoresBack[i*ps.Len() : (i+1)*ps.Len() : (i+1)*ps.Len()])
		nz.NormalizeInto(scores, c.Vector)
		ranked[i] = RankedCandidate{
			Service: c.Service,
			Vector:  c.Vector,
			Scores:  scores,
			Utility: qos.Utility(scores, weights),
		}
	}

	// Cluster each property's score column into ranked quality clusters.
	levels := 1
	if cap(scr.ranks) < ps.Len() {
		scr.ranks = make([][]int, ps.Len())
	}
	ranks := scr.ranks[:ps.Len()] // property → per-candidate rank
	if cap(scr.ranksBack) < ps.Len()*len(cands) {
		scr.ranksBack = make([]int, ps.Len()*len(cands))
	}
	if cap(scr.values) < len(cands) {
		scr.values = make([]float64, len(cands))
	}
	values := scr.values[:len(cands)]
	for j := 0; j < ps.Len(); j++ {
		for i := range ranked {
			values[i] = ranked[i].Scores[j]
		}
		res, err := scr.cl.KMeans1D(values, k, cluster.Options{
			Seeding: seeding,
			Rand:    rng,
		})
		if err != nil {
			return nil, fmt.Errorf("core: clustering %q/%s: %w", activityID, ps.At(j).Name, err)
		}
		ranks[j] = scr.ranksBack[j*len(cands) : (j+1)*len(cands)]
		scr.cl.RanksInto(ranks[j], res, true) // scores: higher is better
		if res.K() > levels {
			levels = res.K()
		}
	}

	// Grade services: Level = best (minimum) cluster rank over the
	// properties; ClassSize = number of properties at that rank.
	for i := range ranked {
		best := ranks[0][i]
		for j := 1; j < ps.Len(); j++ {
			if ranks[j][i] < best {
				best = ranks[j][i]
			}
		}
		e := 0
		for j := 0; j < ps.Len(); j++ {
			if ranks[j][i] == best {
				e++
			}
		}
		ranked[i].Level = best
		ranked[i].ClassSize = e
	}

	scr.perm = sortx.SortStable(ranked, scr.perm, compareRanked)

	return &LocalResult{Ranked: ranked, Levels: levels, nz: nz}, nil
}

// compareRanked is the local phase's best-first order: level asc, class
// size desc, utility desc, then service ID.
func compareRanked(ra, rb *RankedCandidate) int {
	if ra.Level != rb.Level {
		return cmp.Compare(ra.Level, rb.Level)
	}
	if ra.ClassSize != rb.ClassSize {
		return cmp.Compare(rb.ClassSize, ra.ClassSize)
	}
	if ra.Utility != rb.Utility {
		if ra.Utility > rb.Utility {
			return -1
		}
		return 1
	}
	return cmp.Compare(ra.Service.ID, rb.Service.ID)
}
