// Package task models user tasks as trees of abstract activities
// structured by the composition patterns of the thesis (sequence,
// parallel, choice, loop), aggregates QoS vectors over those trees with
// the Table IV.1 formulas, and implements the task-class concept of
// Chapter V: sets of behaviourally different but functionally equivalent
// tasks, stored in a task-class repository.
package task

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"qasom/internal/qos"
	"qasom/internal/semantics"
)

// Pattern is a composition pattern coordinating child nodes.
type Pattern int

// Patterns. PatternActivity marks leaves (a single abstract activity).
const (
	PatternActivity Pattern = iota + 1
	PatternSequence
	PatternParallel
	PatternChoice
	PatternLoop
)

// String returns the conventional pattern name.
func (p Pattern) String() string {
	switch p {
	case PatternActivity:
		return "activity"
	case PatternSequence:
		return "sequence"
	case PatternParallel:
		return "parallel"
	case PatternChoice:
		return "choice"
	case PatternLoop:
		return "loop"
	default:
		return fmt.Sprintf("Pattern(%d)", int(p))
	}
}

// Activity is one abstract activity A_i of a user task: a unit of
// functionality to be bound to a concrete service at selection time.
type Activity struct {
	// ID uniquely identifies the activity within its task.
	ID string
	// Name is a human-readable label (defaults to ID).
	Name string
	// Concept is the functional capability the activity requires,
	// expressed against the shared ontology.
	Concept semantics.ConceptID
	// Inputs and Outputs are the data concepts the activity consumes and
	// produces; they drive the data constraints of behavioural adaptation.
	Inputs  []semantics.ConceptID
	Outputs []semantics.ConceptID
}

// Label returns the display name of the activity.
func (a *Activity) Label() string {
	if a.Name != "" {
		return a.Name
	}
	return a.ID
}

// Node is one node of a task tree: either a leaf activity or a pattern
// over children.
type Node struct {
	// Kind selects the pattern; PatternActivity marks a leaf.
	Kind Pattern
	// Activity is set iff Kind == PatternActivity.
	Activity *Activity
	// Children are the coordinated sub-nodes (patterns only).
	Children []*Node
	// Probs optionally weighs choice branches (same length as Children).
	Probs []float64
	// Loop bounds loop iterations (Kind == PatternLoop only).
	Loop qos.Loop
}

// Task is a user task T: a named tree of abstract activities.
type Task struct {
	// Name identifies the task.
	Name string
	// Concept is the overall functionality the task realises; task
	// classes group tasks by this concept.
	Concept semantics.ConceptID
	// Root is the top of the pattern tree.
	Root *Node

	// acts caches Activities, built on its first call.
	acts atomic.Pointer[[]*Activity]
}

// Fingerprint returns a stable hash of the task's full structure —
// pattern tree shape, activity identities (ID, concept, data concepts),
// branch probabilities and loop bounds. Two tasks hash equal exactly
// when a selection over them is interchangeable, which makes the
// fingerprint a selection-plan cache key component.
func (t *Task) Fingerprint() uint64 {
	h := fnv.New64a()
	writeStr := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writeU64 := func(v uint64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], v)
		h.Write(n[:])
	}
	writeStr(t.Name)
	writeStr(string(t.Concept))
	var walk func(n *Node)
	walk = func(n *Node) {
		if n == nil {
			writeU64(0)
			return
		}
		writeU64(uint64(n.Kind))
		if n.Activity != nil {
			writeStr(n.Activity.ID)
			writeStr(string(n.Activity.Concept))
			writeU64(uint64(len(n.Activity.Inputs)))
			for _, c := range n.Activity.Inputs {
				writeStr(string(c))
			}
			writeU64(uint64(len(n.Activity.Outputs)))
			for _, c := range n.Activity.Outputs {
				writeStr(string(c))
			}
		}
		writeU64(uint64(len(n.Probs)))
		for _, p := range n.Probs {
			writeU64(math.Float64bits(p))
		}
		writeU64(uint64(n.Loop.Min))
		writeU64(uint64(n.Loop.Max))
		writeU64(math.Float64bits(n.Loop.Expected))
		writeU64(uint64(len(n.Children)))
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return h.Sum64()
}

// NewActivity builds a leaf node around an activity.
func NewActivity(a *Activity) *Node {
	return &Node{Kind: PatternActivity, Activity: a}
}

// Sequence builds a sequence node.
func Sequence(children ...*Node) *Node {
	return &Node{Kind: PatternSequence, Children: children}
}

// Parallel builds a parallel (flow) node.
func Parallel(children ...*Node) *Node {
	return &Node{Kind: PatternParallel, Children: children}
}

// Choice builds a choice node with optional branch probabilities.
func Choice(probs []float64, children ...*Node) *Node {
	return &Node{Kind: PatternChoice, Children: children, Probs: probs}
}

// LoopNode wraps a body in a loop with the given iteration bounds.
func LoopNode(loop qos.Loop, body *Node) *Node {
	return &Node{Kind: PatternLoop, Children: []*Node{body}, Loop: loop}
}

// Validate checks structural well-formedness: non-nil nodes, leaves carry
// activities with unique non-empty IDs, patterns have children (loops
// exactly one), probabilities align with branches.
func (t *Task) Validate() error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("task: nil task or root")
	}
	if t.Name == "" {
		return fmt.Errorf("task: unnamed task")
	}
	seen := make(map[string]struct{})
	return validateNode(t.Root, seen)
}

func validateNode(n *Node, seen map[string]struct{}) error {
	if n == nil {
		return fmt.Errorf("task: nil node")
	}
	switch n.Kind {
	case PatternActivity:
		if n.Activity == nil {
			return fmt.Errorf("task: leaf without activity")
		}
		if n.Activity.ID == "" {
			return fmt.Errorf("task: activity without ID")
		}
		if _, dup := seen[n.Activity.ID]; dup {
			return fmt.Errorf("task: duplicate activity ID %q", n.Activity.ID)
		}
		seen[n.Activity.ID] = struct{}{}
		if len(n.Children) != 0 {
			return fmt.Errorf("task: activity %q has children", n.Activity.ID)
		}
		return nil
	case PatternSequence, PatternParallel, PatternChoice:
		if len(n.Children) == 0 {
			return fmt.Errorf("task: %s without children", n.Kind)
		}
		if n.Kind == PatternChoice && n.Probs != nil && len(n.Probs) != len(n.Children) {
			return fmt.Errorf("task: choice with %d probabilities for %d branches", len(n.Probs), len(n.Children))
		}
	case PatternLoop:
		if len(n.Children) != 1 {
			return fmt.Errorf("task: loop with %d bodies, want 1", len(n.Children))
		}
		if n.Loop.Min < 0 || n.Loop.Max < n.Loop.Min {
			return fmt.Errorf("task: loop bounds [%d,%d] invalid", n.Loop.Min, n.Loop.Max)
		}
	default:
		return fmt.Errorf("task: unknown pattern %d", int(n.Kind))
	}
	for _, c := range n.Children {
		if err := validateNode(c, seen); err != nil {
			return err
		}
	}
	return nil
}

// Activities returns the task's abstract activities in left-to-right
// (execution) order. The list is built on the first call and shared by
// every later one, concurrent callers included: it is read-only, and the
// task's tree must be complete before the first call.
func (t *Task) Activities() []*Activity {
	if t == nil {
		return nil
	}
	if p := t.acts.Load(); p != nil {
		return *p
	}
	var out []*Activity
	t.Walk(func(n *Node) {
		if n.Kind == PatternActivity {
			out = append(out, n.Activity)
		}
	})
	out = slices.Clip(out) // an append by a caller must not write into the shared list
	t.acts.Store(&out)
	return out
}

// ActivityByID returns the named activity, or nil.
func (t *Task) ActivityByID(id string) *Activity {
	var found *Activity
	t.Walk(func(n *Node) {
		if n.Kind == PatternActivity && n.Activity.ID == id {
			found = n.Activity
		}
	})
	return found
}

// Walk visits every node of the tree in pre-order.
func (t *Task) Walk(visit func(*Node)) {
	if t == nil || t.Root == nil {
		return
	}
	var rec func(*Node)
	rec = func(n *Node) {
		if n == nil {
			return
		}
		visit(n)
		for _, c := range n.Children {
			rec(c)
		}
	}
	rec(t.Root)
}

// Size returns the number of abstract activities.
func (t *Task) Size() int { return len(t.Activities()) }

// Clone returns a deep copy of the task.
func (t *Task) Clone() *Task {
	if t == nil {
		return nil
	}
	return &Task{Name: t.Name, Concept: t.Concept, Root: cloneNode(t.Root)}
}

func cloneNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := &Node{Kind: n.Kind, Loop: n.Loop}
	if n.Activity != nil {
		a := *n.Activity
		a.Inputs = append([]semantics.ConceptID(nil), n.Activity.Inputs...)
		a.Outputs = append([]semantics.ConceptID(nil), n.Activity.Outputs...)
		out.Activity = &a
	}
	if n.Probs != nil {
		out.Probs = append([]float64(nil), n.Probs...)
	}
	if n.Children != nil {
		out.Children = make([]*Node, len(n.Children))
		for i, c := range n.Children {
			out.Children[i] = cloneNode(c)
		}
	}
	return out
}

// AggregateQoS folds per-activity QoS vectors over the task tree using the
// Table IV.1 formulas under the given aggregation approach. The assign map
// provides one vector per activity ID; missing activities contribute the
// per-property identity element.
func (t *Task) AggregateQoS(ps *qos.PropertySet, assign map[string]qos.Vector, a qos.Approach) qos.Vector {
	if t == nil || t.Root == nil {
		return ps.NewVector()
	}
	return aggregateNode(t.Root, ps, assign, a)
}

func aggregateNode(n *Node, ps *qos.PropertySet, assign map[string]qos.Vector, a qos.Approach) qos.Vector {
	switch n.Kind {
	case PatternActivity:
		if v, ok := assign[n.Activity.ID]; ok {
			return v
		}
		return qos.AggregateSequenceVec(ps, nil) // identity vector
	case PatternSequence:
		return qos.AggregateSequenceVec(ps, childVectors(n, ps, assign, a))
	case PatternParallel:
		return qos.AggregateParallelVec(ps, childVectors(n, ps, assign, a))
	case PatternChoice:
		return qos.AggregateChoiceVec(ps, childVectors(n, ps, assign, a), n.Probs, a)
	case PatternLoop:
		body := aggregateNode(n.Children[0], ps, assign, a)
		return qos.AggregateLoopVec(ps, body, n.Loop, a)
	default:
		return ps.NewVector()
	}
}

func childVectors(n *Node, ps *qos.PropertySet, assign map[string]qos.Vector, a qos.Approach) []qos.Vector {
	out := make([]qos.Vector, len(n.Children))
	for i, c := range n.Children {
		out[i] = aggregateNode(c, ps, assign, a)
	}
	return out
}

// Remaining returns a copy of the task containing only the activities not
// yet completed, pruning pattern nodes that become empty. It is the basis
// of behavioural adaptation: the remaining subtask is what an alternative
// behaviour must still realise. The second result reports whether any
// activity remains.
func (t *Task) Remaining(completed map[string]bool) (*Task, bool) {
	root := pruneNode(cloneNode(t.Root), completed)
	if root == nil {
		return nil, false
	}
	return &Task{Name: t.Name + "-remaining", Concept: t.Concept, Root: root}, true
}

func pruneNode(n *Node, completed map[string]bool) *Node {
	if n == nil {
		return nil
	}
	if n.Kind == PatternActivity {
		if completed[n.Activity.ID] {
			return nil
		}
		return n
	}
	kept := n.Children[:0]
	var keptProbs []float64
	for i, c := range n.Children {
		if pruned := pruneNode(c, completed); pruned != nil {
			kept = append(kept, pruned)
			if n.Probs != nil {
				keptProbs = append(keptProbs, n.Probs[i])
			}
		}
	}
	if len(kept) == 0 {
		return nil
	}
	n.Children = kept
	n.Probs = keptProbs
	// Collapse single-child coordination nodes (loops keep their bounds).
	if len(kept) == 1 && n.Kind != PatternLoop {
		return kept[0]
	}
	return n
}

// String renders the tree in a compact s-expression form, e.g.
// "seq(a, par(b, c))". Useful in logs and test failures.
func (t *Task) String() string {
	if t == nil || t.Root == nil {
		return "task()"
	}
	return renderNode(t.Root)
}

func renderNode(n *Node) string {
	switch n.Kind {
	case PatternActivity:
		return n.Activity.ID
	case PatternSequence, PatternParallel, PatternChoice:
		tag := map[Pattern]string{PatternSequence: "seq", PatternParallel: "par", PatternChoice: "cho"}[n.Kind]
		s := tag + "("
		for i, c := range n.Children {
			if i > 0 {
				s += ", "
			}
			s += renderNode(c)
		}
		return s + ")"
	case PatternLoop:
		return fmt.Sprintf("loop[%d..%d](%s)", n.Loop.Min, n.Loop.Max, renderNode(n.Children[0]))
	default:
		return "?"
	}
}

// Linear builds a purely sequential task of n activities with the given
// functional concept on every activity; a convenience for tests and
// workload generators.
func Linear(name string, concept semantics.ConceptID, n int) *Task {
	children := make([]*Node, n)
	for i := 0; i < n; i++ {
		children[i] = NewActivity(&Activity{
			ID:      fmt.Sprintf("a%d", i+1),
			Concept: concept,
		})
	}
	return &Task{Name: name, Concept: concept, Root: Sequence(children...)}
}

// ActivityIDs returns the sorted IDs of the task's activities.
func (t *Task) ActivityIDs() []string {
	acts := t.Activities()
	out := make([]string, len(acts))
	for i, a := range acts {
		out[i] = a.ID
	}
	sort.Strings(out)
	return out
}
