package core

import (
	"reflect"
	"testing"

	"qasom/internal/qos"
	"qasom/internal/registry"
)

// decision is the deterministic part of a Result: a pure function of
// (request, candidates, seed). Differentials compare decisions only;
// wall-clock durations, worker occupancy (Workers, PeakWorkersBusy)
// and the cache-hit flag are run telemetry that legitimately varies
// with scheduling and history.
type decision struct {
	Assignment Assignment
	Alternates map[string][]registry.Candidate
	Aggregated qos.Vector
	Utility    float64
	Breakdown  map[string]float64
	Feasible   bool
	Degraded   bool
	Violation  float64
	Front      []decision

	// Deterministic work counters.
	LevelsExplored, Evaluations, RepairSwaps int
	Retries, Hedges, BreakerSkips, Fallbacks int
	DegradedCauses                           map[string]string
	FrontSize                                int
}

func decisionOf(r *Result) decision {
	d := decision{
		Assignment:     r.Assignment,
		Alternates:     r.Alternates(),
		Aggregated:     r.Aggregated,
		Utility:        r.Utility,
		Breakdown:      r.Breakdown,
		Feasible:       r.Feasible,
		Degraded:       r.Degraded,
		Violation:      r.Violation,
		LevelsExplored: r.Stats.LevelsExplored,
		Evaluations:    r.Stats.Evaluations,
		RepairSwaps:    r.Stats.RepairSwaps,
		Retries:        r.Stats.Retries,
		Hedges:         r.Stats.Hedges,
		BreakerSkips:   r.Stats.BreakerSkips,
		Fallbacks:      r.Stats.Fallbacks,
		DegradedCauses: r.Stats.DegradedCauses,
		FrontSize:      r.Stats.FrontSize,
	}
	if r.Front != nil {
		d.Front = make([]decision, len(r.Front))
		for i := range r.Front {
			d.Front[i] = decisionOf(&r.Front[i])
		}
	}
	return d
}

// sameDecision fails the test unless a and b made bit-identical
// decisions with identical deterministic work counters.
func sameDecision(t *testing.T, a, b *Result) {
	t.Helper()
	if da, db := decisionOf(a), decisionOf(b); !reflect.DeepEqual(da, db) {
		t.Fatalf("decisions diverge:\nfirst:  %+v\nsecond: %+v", da, db)
	}
}
