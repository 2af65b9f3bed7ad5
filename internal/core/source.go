package core

import (
	"context"
	"fmt"

	"qasom/internal/qos"
	"qasom/internal/registry"
	"qasom/internal/semantics"
	"qasom/internal/task"
)

// CandidateSource is where a selection gets its per-activity candidates:
// a registry view, or anything else that resolves an abstract activity
// to concrete, QoS-aligned services.
type CandidateSource interface {
	CandidatesForActivity(a *task.Activity, ps *qos.PropertySet) []registry.Candidate
}

// NoCandidatesError reports an activity no published service can
// implement.
type NoCandidatesError struct {
	Activity string
	Concept  semantics.ConceptID
}

func (e *NoCandidatesError) Error() string {
	return fmt.Sprintf("no services for activity %q (capability %q)", e.Activity, e.Concept)
}

// GatherCandidates resolves every activity of the task against the
// source in task order, honouring ctx at per-activity boundaries (the
// lookup returns ctx.Err() promptly and leaves the source unmutated).
// An activity with no candidates fails the whole gather with a
// *NoCandidatesError.
func GatherCandidates(ctx context.Context, t *task.Task, src CandidateSource, ps *qos.PropertySet) (map[string][]registry.Candidate, error) {
	acts := t.Activities()
	out := make(map[string][]registry.Candidate, len(acts))
	for _, a := range acts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		cands := src.CandidatesForActivity(a, ps)
		if len(cands) == 0 {
			return nil, &NoCandidatesError{Activity: a.ID, Concept: a.Concept}
		}
		out[a.ID] = cands
	}
	return out, nil
}
