package scenario

import (
	"fmt"

	"repro/internal/ring"
)

// Runtime registration hooks. The catalog is built at init time, but
// compiled protocol specs (see internal/mardsl) arrive later — from
// embedded spec files, -mar flags, or generated text — and register
// through these entry points. A runtime-registered scenario is
// indistinguishable from an init-time one: same builders, same chunked
// jobs, same deviation plumbing, so fleserve, flecert, and cmd/scenarios
// serve it unchanged.

// RegisterRingScenario registers an honest ring-simulator scenario running
// proto under s.Scheduler. The run, chunked-job, and single-execution
// functions are derived exactly as for the init-time catalog, so the
// scenario shards over the fleet (RunShard) and answers deviation sweeps
// like any native entry.
func RegisterRingScenario(s Scenario, proto ring.Protocol) error {
	if proto == nil {
		return fmt.Errorf("scenario: %s: nil protocol", s.Name)
	}
	switch s.Scheduler {
	case SchedFIFO, SchedLIFO, SchedRandom:
	default:
		return fmt.Errorf("scenario: %s: unknown scheduler %q", s.Name, s.Scheduler)
	}
	chunks, single := ringHonest(proto, s.Scheduler)
	s.proto = proto
	s.chunks, s.single = chunks, single
	return tryRegister(s)
}

// RegisterRingAttackScenario registers a ring attack scenario planning
// through the named registered deviation family (and mode) against proto,
// exactly as the init-time attack catalog does — equilibrium sweeps
// restricted to the scenario's own candidate stay byte-identical to its
// runs. The family must already be registered (see
// RegisterDeviationFamily).
func RegisterRingAttackScenario(s Scenario, proto ring.Protocol, family, mode string) error {
	if proto == nil {
		return fmt.Errorf("scenario: %s: nil protocol", s.Name)
	}
	if _, ok := FindFamily(family); !ok {
		return fmt.Errorf("scenario: %s: no registered deviation family %q", s.Name, family)
	}
	if s.Scheduler == "" {
		s.Scheduler = SchedFIFO
	}
	chunks, single := ringFamilyAttack(proto, family, mode)
	s.proto, s.family, s.mode = proto, family, mode
	s.chunks, s.single = chunks, single
	return tryRegister(s)
}

// RegisterDeviationFamily adds a deviation family to the catalog at
// runtime; equilibrium sweeps over scenarios the family applies to pick it
// up immediately.
func RegisterDeviationFamily(f DeviationFamily) error {
	return tryRegisterFamily(f)
}

// FindRingProtocol returns the ring protocol behind a registered
// ring-topology scenario with the given protocol slug. It is how runtime
// registrations resolve the protocol an adversary spec deviates from —
// native protocols and previously registered compiled ones alike.
func FindRingProtocol(slug string) (ring.Protocol, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	for _, name := range names {
		s := registry[name]
		if s.Topology == "ring" && s.Protocol == slug && s.proto != nil {
			return s.proto, true
		}
	}
	return nil, false
}
