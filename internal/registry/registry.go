// Package registry implements QASOM's semantic service registry: the
// directory where providers in the pervasive environment publish
// QoS-annotated service descriptions and where the composition framework
// resolves abstract activities to candidate services. Matching is
// semantic (capability concepts via the shared ontology, with alias
// resolution for heterogeneous QoS vocabularies) and QoS offers are
// converted into vectors aligned to the requester's property set.
//
// The storage core is a multi-tenant Store (see store.go);
// Registry is the tenant-bound view every pre-multi-tenant call site
// keeps using unchanged.
package registry

import (
	"cmp"
	"fmt"
	"math"
	"sort"

	"qasom/internal/qos"
	"qasom/internal/semantics"
	"qasom/internal/sortx"
	"qasom/internal/task"
)

// ServiceID identifies a published service.
type ServiceID string

// DeviceID identifies the hosting device.
type DeviceID string

// QoSOffer is one advertised QoS statement, expressed in the provider's
// own vocabulary and unit.
type QoSOffer struct {
	// Property is the provider's name for the QoS property; it may be a
	// canonical concept or any alias the shared ontology knows.
	Property semantics.ConceptID
	// Value is the advertised value in Unit.
	Value float64
	// Unit is the unit of Value; the zero Unit means the canonical unit.
	Unit qos.Unit
}

// Description is a published service description.
type Description struct {
	// ID uniquely identifies the service in the registry.
	ID ServiceID
	// Name is a human-readable label.
	Name string
	// Concept is the functional capability the service offers.
	Concept semantics.ConceptID
	// Inputs and Outputs are the data concepts consumed and produced.
	Inputs  []semantics.ConceptID
	Outputs []semantics.ConceptID
	// Provider is the hosting device.
	Provider DeviceID
	// Address is the invocation endpoint (transport-specific).
	Address string
	// Offers are the advertised QoS statements.
	Offers []QoSOffer
}

// Validate reports whether the description can be published.
func (d *Description) Validate() error {
	switch {
	case d == nil:
		return fmt.Errorf("registry: nil description")
	case d.ID == "":
		return fmt.Errorf("registry: service without ID")
	case d.Concept == "":
		return fmt.Errorf("registry: service %q without capability concept", d.ID)
	}
	// A NaN or infinite offer would score NaN in selection, and the
	// local phase's order and the failover rotation assume finite
	// utilities.
	for i := range d.Offers {
		if v := d.Offers[i].Value; math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("registry: service %q offers non-finite %s %v", d.ID, d.Offers[i].Property, v)
		}
	}
	return nil
}

// OfferFor returns the advertised value for the given canonical property,
// resolving vocabulary heterogeneity through the ontology and converting
// units. The bool reports whether a usable offer exists: the first offer
// that matches the property and whose unit converts.
func (d *Description) OfferFor(p *qos.Property, o *semantics.Ontology) (float64, bool) {
	for i := range d.Offers {
		if !offerMatches(o, canonicalName(o, d.Offers[i].Property), p) {
			continue
		}
		v, err := convertOffer(&d.Offers[i], p)
		if err != nil {
			continue
		}
		return v, true
	}
	return 0, false
}

// canonicalName resolves an offer's property name through the ontology.
func canonicalName(o *semantics.Ontology, name semantics.ConceptID) semantics.ConceptID {
	if o != nil {
		return o.Canonical(name)
	}
	return name
}

// offerMatches reports whether an offer whose canonical property name is
// canon satisfies p: the same concept, or a plug-in match for it.
func offerMatches(o *semantics.Ontology, canon semantics.ConceptID, p *qos.Property) bool {
	if canon == p.Concept {
		return true
	}
	return o != nil && o.Match(p.Concept, canon) == semantics.MatchPlugin
}

// convertOffer converts an offer's value into p's unit; an offer that
// names no unit is taken to be in p's unit already.
func convertOffer(offer *QoSOffer, p *qos.Property) (float64, error) {
	unit := offer.Unit
	if unit.Factor == 0 {
		unit = p.Unit
	}
	return qos.Convert(offer.Value, unit, p.Unit)
}

// VectorFor resolves the full advertised QoS vector aligned to the
// property set. It fails when any property lacks a usable offer.
func (d *Description) VectorFor(ps *qos.PropertySet, o *semantics.Ontology) (qos.Vector, error) {
	out := ps.NewVector()
	for j := 0; j < ps.Len(); j++ {
		v, ok := d.OfferFor(ps.At(j), o)
		if !ok {
			return nil, fmt.Errorf("registry: service %q offers no %q", d.ID, ps.At(j).Name)
		}
		out[j] = v
	}
	return out, nil
}

// clone deep-copies the description. Publish, Get and All are the only
// callers: the registry never aliases a caller's slices, and a caller
// never receives the registry's own.
func (d Description) clone() Description {
	d.Inputs = append([]semantics.ConceptID(nil), d.Inputs...)
	d.Outputs = append([]semantics.ConceptID(nil), d.Outputs...)
	d.Offers = append([]QoSOffer(nil), d.Offers...)
	return d
}

// Candidate is a service resolved for an abstract activity: the
// description, its QoS vector aligned to the request's properties, and
// the semantic match level of its capability.
//
// A candidate is an immutable value. Service points at the description
// the registry froze when it was published: every lookup of that
// publish shares it, and a re-publish freezes a new one instead of
// changing it. Vector is shared the same way: the registry resolves it
// once per publish, property set and ontology version, and every lookup
// that finds all three unchanged hands out the same vector. Copying a
// candidate is therefore enough to keep it; no reader may write through
// Service or into Vector.
type Candidate struct {
	Service *Description
	Vector  qos.Vector
	Match   semantics.MatchLevel
}

// sortCandidates orders a candidate list by match level (better first)
// then service ID — the contract of every Candidates variant. It sorts
// an index permutation and moves each candidate once; a list of up to
// 256 candidates sorts without allocating.
func sortCandidates(out []Candidate) {
	var perm [256]int32
	sortx.SortStable(out, perm[:0], compareCandidates)
}

func compareCandidates(a, b *Candidate) int {
	if a.Match != b.Match {
		if a.Match.Beats(b.Match) {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.Service.ID, b.Service.ID)
}

// Registry is the concurrent service directory: a tenant-bound view over
// a Store. Create single-tenant instances with New, or views
// over a shared store with Store.Tenant. All methods are safe for
// concurrent use; views are cheap handles and any number may exist per
// tenant.
type Registry struct {
	store  *Store
	tenant TenantID
}

// New creates a single-tenant registry over a fresh store, bound to the
// shared ontology (nil restricts matching to exact concept equality).
func New(o *semantics.Ontology) *Registry {
	return NewStore(o, StoreOptions{}).Tenant(DefaultTenant)
}

// TenantID returns the tenant this view is bound to.
func (r *Registry) TenantID() TenantID { return r.tenant }

// CapabilityEpochs overwrites dst from index 0 with the current epoch of
// each required capability concept for this tenant (bumped whenever a
// service whose capability closure covers the concept joins, changes or
// leaves), followed by the shared ontology's mutation version when one
// is attached — together, the exact staleness signal for anything
// derived from a Candidates lookup on those concepts. Whatever dst held
// before is discarded, not kept as a prefix. A never-published
// capability reports epoch 0; the first publish moves it. The snapshot
// is lock-free: one atomic load per concept. Pass a reused slice to
// avoid allocation.
func (r *Registry) CapabilityEpochs(dst []uint64, concepts ...semantics.ConceptID) []uint64 {
	return r.store.capabilityEpochs(r.tenant, dst, concepts...)
}

// NewEpochProbe returns a probe whose Epochs(dst) returns what
// CapabilityEpochs(dst, concepts...) returns, for callers that snapshot
// the same concepts on every request (the plan cache's task epochs).
func (r *Registry) NewEpochProbe(concepts ...semantics.ConceptID) *EpochProbe {
	return &EpochProbe{store: r.store, tenant: r.tenant, concepts: append([]semantics.ConceptID(nil), concepts...)}
}

// Ontology returns the registry's shared ontology (may be nil).
func (r *Registry) Ontology() *semantics.Ontology { return r.store.Ontology() }

// Publish validates and stores a description for this tenant, replacing
// any previous version.
func (r *Registry) Publish(d Description) error {
	return r.store.publish(r.tenant, d)
}

// Withdraw removes a service of this tenant; it reports whether the
// service was present.
func (r *Registry) Withdraw(id ServiceID) bool {
	return r.store.withdraw(r.tenant, id)
}

// Has reports whether this tenant publishes id. Unlike Get it copies
// nothing: failover probes every alternate it walks past with it.
func (r *Registry) Has(id ServiceID) bool {
	return r.store.has(r.tenant, id)
}

// Get returns a copy of the description for id.
func (r *Registry) Get(id ServiceID) (Description, bool) {
	return r.store.get(r.tenant, id)
}

// Len returns the number of services this tenant has published.
func (r *Registry) Len() int {
	return int(r.store.tenantCount(r.tenant).Load())
}

// All returns copies of every description of this tenant, sorted by ID.
func (r *Registry) All() []Description {
	out := r.store.all(r.tenant)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Candidates resolves the tenant's services able to provide the required
// capability, with their QoS vectors aligned to ps. Services whose
// capability fails to match (subsume matches are excluded: a more
// general service does not guarantee the required function) or whose
// offers cannot cover ps are skipped. Results are sorted by match level
// then ID.
//
// The lookup reads exactly one capability key's filing, the required
// concept's, without a lock in the steady state: every service is filed
// under its capability closure when it is published.
func (r *Registry) Candidates(required semantics.ConceptID, ps *qos.PropertySet) []Candidate {
	return r.store.candidates(r.tenant, required, ps)
}

// CandidatesForActivity resolves candidates for an abstract activity,
// additionally enforcing data compatibility when both sides declare it:
// every input the service requires must be provided by the activity, and
// every output the activity expects must be produced by the service.
func (r *Registry) CandidatesForActivity(a *task.Activity, ps *qos.PropertySet) []Candidate {
	base := r.Candidates(a.Concept, ps)
	out := base[:0]
	for _, c := range base {
		if r.dataCompatible(a, c.Service) {
			out = append(out, c)
		}
	}
	return out
}

func (r *Registry) dataCompatible(a *task.Activity, d *Description) bool {
	for _, in := range d.Inputs {
		if len(a.Inputs) == 0 {
			break // activity declares nothing: do not constrain
		}
		if !r.conceptCovered(in, a.Inputs) {
			return false
		}
	}
	for _, want := range a.Outputs {
		if len(d.Outputs) == 0 {
			return false
		}
		if !r.conceptCovered(want, d.Outputs) {
			return false
		}
	}
	return true
}

func (r *Registry) conceptCovered(required semantics.ConceptID, available []semantics.ConceptID) bool {
	for _, offered := range available {
		if r.store.matchCapability(required, offered).Satisfies() {
			return true
		}
	}
	return false
}
