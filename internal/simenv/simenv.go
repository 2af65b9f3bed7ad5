// Package simenv simulates a pervasive environment: devices hosting
// services over wireless links, QoS that fluctuates at run time, service
// churn (join/leave) and failures. It substitutes for the thesis's
// SemEUsE/testbed deployment (see DESIGN.md): the evaluation's adaptation
// experiments need exactly this behaviour — advertised QoS that drifts
// away from run-time QoS, and services that disappear mid-composition.
package simenv

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"qasom/internal/exec"
	"qasom/internal/qos"
	"qasom/internal/randx"
	"qasom/internal/registry"
	"qasom/internal/resilience"
	"qasom/internal/task"
)

// Device models a host in the environment.
type Device struct {
	// ID identifies the device.
	ID registry.DeviceID
	// Battery in [0,1]; a drained device takes its services down.
	Battery float64
	// LinkLatency is the wireless round-trip added to every invocation
	// served by this device.
	LinkLatency time.Duration
}

// Service is one deployed simulated service.
type Service struct {
	// Desc is the published description (advertised QoS).
	Desc registry.Description
	// Actual is the service's true QoS vector; invocations observe
	// Actual perturbed by Noise. It starts equal to the advertised
	// vector unless set explicitly, and moves under Drift.
	Actual qos.Vector
	// Noise is the relative multiplicative jitter per invocation (0.05 =
	// ±5%).
	Noise float64
	// Drift is added to Actual after every invocation (QoS fluctuation:
	// positive drift on a minimized property degrades the service).
	Drift qos.Vector
	// FailProb is the per-invocation failure probability.
	FailProb float64
}

// Options configure the environment.
type Options struct {
	// Seed drives all randomness; 0 means 1.
	Seed int64
	// TimeScale converts simulated milliseconds of response time into
	// wall-clock sleep (e.g. 10µs means a 100ms-QoS invocation sleeps
	// 1ms). Zero means no sleeping: invocations return instantly with
	// simulated latencies, which is what the benchmarks want.
	TimeScale time.Duration
}

// Environment is the simulated pervasive environment. Safe for
// concurrent use.
type Environment struct {
	ps  *qos.PropertySet
	reg *registry.Registry

	mu       sync.Mutex
	rng      *rand.Rand
	opts     Options
	devices  map[registry.DeviceID]*Device
	services map[registry.ServiceID]*Service
	downs    map[registry.ServiceID]bool
	invoked  int

	// Mobility / radio model (nil when disabled); see mobility.go.
	radio   *RadioModel
	userPos Position
	mobiles map[string]*mobile
}

// New creates an environment publishing into the given registry.
func New(ps *qos.PropertySet, reg *registry.Registry, opts Options) *Environment {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	return &Environment{
		ps:       ps,
		reg:      reg,
		rng:      randx.New(opts.Seed),
		opts:     opts,
		devices:  make(map[registry.DeviceID]*Device),
		services: make(map[registry.ServiceID]*Service),
		downs:    make(map[registry.ServiceID]bool),
	}
}

// Registry returns the environment's registry.
func (e *Environment) Registry() *registry.Registry { return e.reg }

// AddDevice registers a device.
func (e *Environment) AddDevice(d Device) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := d
	e.devices[d.ID] = &cp
}

// Deploy publishes a service into the environment (and registry). When
// Actual is nil it is initialised from the advertised offers.
func (e *Environment) Deploy(s Service) error {
	if err := s.Desc.Validate(); err != nil {
		return err
	}
	if s.Actual == nil {
		vec, err := s.Desc.VectorFor(e.ps, e.reg.Ontology())
		if err != nil {
			return fmt.Errorf("simenv: %w", err)
		}
		s.Actual = vec
	}
	if len(s.Actual) != e.ps.Len() {
		return fmt.Errorf("simenv: service %q actual vector arity %d, want %d",
			s.Desc.ID, len(s.Actual), e.ps.Len())
	}
	if err := e.reg.Publish(s.Desc); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	cp := s
	cp.Actual = s.Actual.Clone()
	if s.Drift != nil {
		cp.Drift = s.Drift.Clone()
	}
	e.services[s.Desc.ID] = &cp
	delete(e.downs, s.Desc.ID)
	return nil
}

// Leave withdraws a service from the environment (churn).
func (e *Environment) Leave(id registry.ServiceID) bool {
	e.mu.Lock()
	_, ok := e.services[id]
	delete(e.services, id)
	e.mu.Unlock()
	if ok {
		e.reg.Withdraw(id)
	}
	return ok
}

// SetDown marks a service unreachable without withdrawing its
// advertisement (the mismatch the monitor must catch).
func (e *Environment) SetDown(id registry.ServiceID, down bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.downs[id] = down
}

// Degrade shifts a service's actual QoS by delta (advertisements stay
// unchanged — the run-time fluctuation of Chapter V).
func (e *Environment) Degrade(id registry.ServiceID, delta qos.Vector) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.services[id]
	if !ok {
		return fmt.Errorf("simenv: unknown service %q", id)
	}
	if len(delta) != len(s.Actual) {
		return fmt.Errorf("simenv: delta arity %d, want %d", len(delta), len(s.Actual))
	}
	for j := range delta {
		s.Actual[j] += delta[j]
		if e.ps.At(j).Kind == qos.KindProbability {
			if s.Actual[j] < 0 {
				s.Actual[j] = 0
			}
			if s.Actual[j] > 1 {
				s.Actual[j] = 1
			}
		} else if s.Actual[j] < 0 {
			s.Actual[j] = 0
		}
	}
	return nil
}

// Invocations returns the total invocation count.
func (e *Environment) Invocations() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.invoked
}

var _ exec.Invoker = (*Environment)(nil)

// Invoke implements exec.Invoker: it perturbs the service's actual QoS
// with noise, applies drift, draws failure, and (with a non-zero
// TimeScale) sleeps the scaled response time.
func (e *Environment) Invoke(ctx context.Context, id registry.ServiceID, act *task.Activity) (exec.InvokeResult, error) {
	e.mu.Lock()
	s, ok := e.services[id]
	if !ok {
		e.mu.Unlock()
		return exec.InvokeResult{}, fmt.Errorf("simenv: service %q not reachable", id)
	}
	e.invoked++
	down := e.downs[id]
	extraMs, reachable := e.linkEffectLocked(string(s.Desc.Provider))
	failed := down || !reachable || e.rng.Float64() < s.FailProb
	measured := s.Actual.Clone()
	if extraMs > 0 {
		if j, okRT := e.ps.Index("responseTime"); okRT {
			measured[j] += extraMs
		}
	}
	for j := range measured {
		if s.Noise > 0 {
			measured[j] *= 1 + s.Noise*(2*e.rng.Float64()-1)
		}
		if e.ps.At(j).Kind == qos.KindProbability {
			if measured[j] > 1 {
				measured[j] = 1
			}
			if measured[j] < 0 {
				measured[j] = 0
			}
		} else if measured[j] < 0 {
			measured[j] = 0
		}
	}
	if s.Drift != nil {
		for j := range s.Actual {
			s.Actual[j] += s.Drift[j]
			if e.ps.At(j).Kind == qos.KindProbability {
				if s.Actual[j] < 0 {
					s.Actual[j] = 0
				}
				if s.Actual[j] > 1 {
					s.Actual[j] = 1
				}
			} else if s.Actual[j] < 0 {
				s.Actual[j] = 0
			}
		}
	}
	var latency time.Duration
	if j, okRT := e.ps.Index("responseTime"); okRT {
		latency = time.Duration(measured[j] * float64(time.Millisecond))
	} else {
		latency = time.Millisecond
	}
	var linkLatency time.Duration
	if dev, okDev := e.devices[s.Desc.Provider]; okDev {
		linkLatency = dev.LinkLatency
	}
	scale := e.opts.TimeScale
	e.mu.Unlock()

	var sleep time.Duration
	if scale > 0 {
		sleep = time.Duration(float64(latency) / float64(time.Millisecond) * float64(scale))
		sleep += linkLatency
	}
	if sleep > 0 {
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return exec.InvokeResult{}, resilience.CauseErr(ctx)
		}
	}
	if failed {
		return exec.InvokeResult{Measured: measured, Latency: latency, Success: false}, nil
	}
	return exec.InvokeResult{Measured: measured, Latency: latency, Success: true}, nil
}
