package qasom

import (
	"fmt"

	"qasom/internal/qos"
)

// ContractReport is the public view of one compliance check.
type ContractReport struct {
	// ContractID names the contract.
	ContractID string
	// Service is the provider under contract.
	Service string
	// Compliant reports whether every agreed term held.
	Compliant bool
	// Penalty accrued by this check.
	Penalty float64
	// Tier is the perceived satisfaction ("DelightedTier",
	// "SatisfiedTier", "TolerableTier", "FrustratedTier").
	Tier string
	// Violations lists broken terms as "property: agreed vs observed".
	Violations []string
}

// EstablishContracts creates one quality contract per activity of the
// composition: each selected provider commits to its advertised QoS
// (the terms). penaltyRate scales the penalty accrued per compliance
// check per unit of relative violation. It returns the contract IDs
// keyed by activity.
func (m *Middleware) EstablishContracts(c *Composition, penaltyRate float64) (map[string]string, error) {
	res := c.runtime.Result()
	out := make(map[string]string, len(res.Assignment))
	for act, cand := range res.Assignment {
		terms := make(qos.Constraints, 0, m.props.Len())
		for j := 0; j < m.props.Len(); j++ {
			terms = append(terms, qos.Constraint{Property: m.props.At(j).Name, Bound: cand.Vector[j]})
		}
		desc, ok := m.reg.Get(cand.Service.ID)
		if !ok {
			return nil, fmt.Errorf("qasom: service %q no longer published", cand.Service.ID)
		}
		ct, err := m.contracts.Establish("user", desc, terms, penaltyRate)
		if err != nil {
			return nil, fmt.Errorf("qasom: activity %q: %w", act, err)
		}
		out[act] = ct.ID
	}
	return out, nil
}

// CheckContracts evaluates every established contract against the
// run-time monitor and returns the reports (nil when no contracts
// exist).
func (m *Middleware) CheckContracts() []ContractReport {
	var out []ContractReport
	for _, r := range m.contracts.CheckAll(m.mon) {
		ct, _ := m.contracts.Get(r.ContractID)
		pub := ContractReport{
			ContractID: r.ContractID,
			Service:    string(ct.Service),
			Compliant:  r.Compliant(),
			Penalty:    r.Penalty,
			Tier:       string(r.Tier),
		}
		for _, v := range r.Violations {
			pub.Violations = append(pub.Violations,
				fmt.Sprintf("%s: agreed %g, observed %g", v.Property, v.Agreed, v.Observed))
		}
		out = append(out, pub)
	}
	return out
}

// AccruedPenalty returns the total penalty a contract has accrued.
func (m *Middleware) AccruedPenalty(contractID string) float64 {
	return m.contracts.AccruedPenalty(contractID)
}
