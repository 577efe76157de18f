package scenario

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/attacks"
	"repro/internal/protocols/phaselead"
	"repro/internal/ring"
)

// The two pseudo-families every sweep understands besides the registered
// attack families.
const (
	// FamilyIdentity is the honest no-op deviation: coalition size zero.
	// Its measured gain is the scenario's own bias — the Definition 2.3 ε
	// of the honest run — and certifying it near zero is what "the
	// protocol is fair" means before any adversary shows up.
	FamilyIdentity = "identity"
	// FamilySelf is the fallback family of attack scenarios whose
	// adversary lives outside the ring simulator (the Shamir share pool,
	// the dictating tree root, the synchronous tamperer): the sweep
	// re-runs the scenario's own batch across coalition sizes and
	// targets instead of planning ring deviations.
	FamilySelf = "self"
)

// DeviationCandidate is one point of a scenario's deviation space: an attack
// family instantiated at a coalition size, steering mode, and target leader.
// Candidates are plain data — (Family, K, Mode, Target) fully determines the
// planned deviation — which is what makes a certificate's arg-max
// reproducible from its digest.
type DeviationCandidate struct {
	// Family is a registered DeviationFamily name, FamilyIdentity, or
	// FamilySelf.
	Family string `json:"family"`
	// K is the coalition size; 0 means the family's own default. For
	// randomized-placement families it is the expected size — planning
	// draws the actual coalition per trial.
	K int `json:"k,omitempty"`
	// Mode is the family-specific variant ("equal", "steer", "c3", …).
	Mode string `json:"mode,omitempty"`
	// Target is the leader the coalition tries to force; 0 for identity.
	Target int64 `json:"target,omitempty"`
}

// String renders the candidate compactly ("rushing/equal k=8 t=2").
func (c DeviationCandidate) String() string {
	if c.Family == FamilyIdentity || c.Family == "" {
		return FamilyIdentity
	}
	s := c.Family
	if c.Mode != "" {
		s += "/" + c.Mode
	}
	s += fmt.Sprintf(" k=%d t=%d", c.K, c.Target)
	return s
}

// DeviationFamily is one enumerable family of adversarial deviations: the
// planning rule of a ring.Attack lifted to a parameter space the equilibrium
// sweeps can walk. Families are registered at init time alongside the
// scenarios that use them, so "which deviations were considered" is part of
// the catalog rather than folklore in the experiment harness.
type DeviationFamily struct {
	// Name is the family slug ("rushing", "phase-rushing", …).
	Name string
	// Protocols lists the protocol slugs the family attacks; empty means
	// every protocol on its topologies (the abort family).
	Protocols []string
	// Topologies lists the topology slugs; empty means {"ring"}.
	Topologies []string
	// Modes lists the family's variants; empty means the single mode "".
	Modes []string
	// Note is a one-line description for catalogs.
	Note string

	// Sizes returns representative coalition sizes (ascending, concrete,
	// at most a handful) for ring size n and the given mode; nil or empty
	// means the single size 0 (family default).
	Sizes func(n int, mode string) []int
	// DefaultK resolves the size a zero K means; nil means 0 stays 0
	// (the family ignores K).
	DefaultK func(n int, mode string) int
	// Plan builds the family's attack against proto at (k, mode).
	Plan func(proto ring.Protocol, k int, mode string) (ring.Attack, error)
	// Proto, if non-nil, replaces the protocol under attack (the wake-up
	// lift pins ids to positions).
	Proto func(n int, base ring.Protocol) ring.Protocol
}

// modes returns the family's mode list, defaulting to the single "".
func (f DeviationFamily) modes() []string {
	if len(f.Modes) == 0 {
		return []string{""}
	}
	return f.Modes
}

// sizes returns the family's representative sizes for (n, mode), defaulting
// to the single size 0.
func (f DeviationFamily) sizes(n int, mode string) []int {
	if f.Sizes == nil {
		return []int{0}
	}
	s := f.Sizes(n, mode)
	if len(s) == 0 {
		return []int{0}
	}
	return s
}

// applies reports whether the family attacks the given topology/protocol.
func (f DeviationFamily) applies(topology, protocol string) bool {
	tops := f.Topologies
	if len(tops) == 0 {
		tops = []string{"ring"}
	}
	found := false
	for _, t := range tops {
		if t == topology {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	if len(f.Protocols) == 0 {
		return true
	}
	for _, p := range f.Protocols {
		if p == protocol {
			return true
		}
	}
	return false
}

// Family registry. The paper's families are registered at init time;
// runtime registration (compiled MAR adversaries, see
// RegisterDeviationFamily) can extend the catalog afterwards, so famMu
// guards both maps against concurrent reads.
var (
	famMu          sync.RWMutex
	familyRegistry = map[string]DeviationFamily{}
	familyNames    []string
)

// registerFamily adds a deviation family to the catalog, panicking on
// malformed or duplicate entries (init-time failure should be loud).
func registerFamily(f DeviationFamily) {
	if err := tryRegisterFamily(f); err != nil {
		panic(err.Error())
	}
}

// tryRegisterFamily validates and inserts one family, the error-returning
// core shared by init-time registration and the runtime hook.
func tryRegisterFamily(f DeviationFamily) error {
	switch {
	case f.Name == "":
		return fmt.Errorf("scenario: registering unnamed deviation family")
	case f.Plan == nil:
		return fmt.Errorf("scenario: family %s has no plan function", f.Name)
	case f.Name == FamilyIdentity || f.Name == FamilySelf:
		return fmt.Errorf("scenario: family name %s is reserved", f.Name)
	}
	famMu.Lock()
	defer famMu.Unlock()
	if _, dup := familyRegistry[f.Name]; dup {
		return fmt.Errorf("scenario: duplicate registration of family %s", f.Name)
	}
	familyRegistry[f.Name] = f
	familyNames = append(familyNames, f.Name)
	sort.Strings(familyNames)
	return nil
}

// Families returns every registered deviation family, sorted by name.
func Families() []DeviationFamily {
	famMu.RLock()
	defer famMu.RUnlock()
	out := make([]DeviationFamily, len(familyNames))
	for i, name := range familyNames {
		out[i] = familyRegistry[name]
	}
	return out
}

// FindFamily returns the named deviation family.
func FindFamily(name string) (DeviationFamily, bool) {
	famMu.RLock()
	defer famMu.RUnlock()
	f, ok := familyRegistry[name]
	return f, ok
}

// resilience maps protocol slugs to the coalition size the paper claims the
// protocol resists. Honest scenarios sweep deviations up to this bound by
// default: a certificate then machine-checks the paper's claim ("no
// coalition within the bound profits") while the above-threshold attack
// scenarios exhibit its tightness. Absent slugs claim nothing (bound 0).
var resilience = map[string]func(n int) int{
	// A-LEADuni resists coalitions of size O(n^{1/4}) (Theorem 5.1).
	"a-lead": floorRoot4,
	// PhaseAsyncLead resists √n/10 (Theorem 6.1).
	"phase-lead": floorSqrtTenth,
	// The sum-output control variant is broken by 4 colluders
	// (Appendix E.4); below that it behaves like the phase protocol.
	"sum-phase": func(int) int { return 3 },
	// Shamir sharing on the complete graph resists ⌈n/2⌉−1 (Section 1.1).
	"shamir": func(n int) int { return (n+1)/2 - 1 },
	// The synchronous models resist any coalition: round boundaries make
	// rushing impossible (Section 1.1).
	"complete-lead":  func(n int) int { return n - 1 },
	"ring-sync-lead": func(n int) int { return n - 1 },
}

// floorRoot4 returns ⌊n^{1/4}⌋ in exact integer arithmetic.
func floorRoot4(n int) int {
	k := 0
	for (k+1)*(k+1)*(k+1)*(k+1) <= n {
		k++
	}
	return k
}

// floorSqrtTenth returns ⌊√n/10⌋ in exact integer arithmetic.
func floorSqrtTenth(n int) int {
	k := 0
	for 100*(k+1)*(k+1) <= n {
		k++
	}
	return k
}

// ResilientK returns the coalition size the paper claims this scenario's
// protocol resists on a network of size n — the default sweep bound for
// honest scenarios. Protocols without a resilience claim return 0.
func (s Scenario) ResilientK(n int) int {
	f, ok := resilience[s.Protocol]
	if !ok {
		return 0
	}
	return f(n)
}

// DefaultSweepTargets returns the target leaders a sweep tries by default:
// the scenario's registered target (or position 2) first, then one far
// position, so target choice is a real sweep dimension without blowing up
// the space.
func DefaultSweepTargets(n int, registered int64) []int64 {
	primary := registered
	if primary == 0 {
		primary = 2
	}
	second := int64(2)
	if primary == 2 {
		second = int64(n/2 + 1)
	}
	if second == primary || second > int64(n) || second < 1 {
		return []int64{primary}
	}
	return []int64{primary, second}
}

// DeviationSpace enumerates the scenario's deviation candidates under the
// resolved overrides: the identity deviation plus, for honest ring-simulator
// scenarios, every applicable registered family at coalition sizes up to
// maxK (0 picks the protocol's resilience bound, so the default certificate
// checks exactly the paper's claim); for attack scenarios, their own family
// across all its modes and representative sizes (or the self family for
// non-ring adversaries). Infeasible candidates — sizes the planner rejects
// for this n — are excluded, so the returned space is exactly what a sweep
// will run, in a deterministic order.
func (s Scenario) DeviationSpace(o Opts, maxK int, targets []int64) []DeviationCandidate {
	p := s.params(o)
	n := p.N
	if len(targets) == 0 {
		targets = DefaultSweepTargets(n, p.Target)
	}
	var out []DeviationCandidate
	if s.Attack == "" || s.proto != nil {
		out = append(out, DeviationCandidate{Family: FamilyIdentity})
	}
	switch {
	case s.Attack != "" && s.family != "":
		// The scenario's own family, all modes, registered size first.
		fam, ok := FindFamily(s.family)
		if !ok {
			return out
		}
		for _, mode := range fam.modes() {
			kReg := 0
			if mode == s.mode {
				kReg = p.K
			}
			if kReg == 0 {
				if fam.DefaultK != nil {
					kReg = fam.DefaultK(n, mode)
				} else {
					kReg = fam.sizes(n, mode)[0]
				}
			}
			sizes := dedupSizes(append([]int{kReg}, subsample(fam.sizes(n, mode), 3)...))
			for _, k := range sizes {
				for _, t := range targets {
					cand := DeviationCandidate{Family: fam.Name, K: k, Mode: mode, Target: t}
					if s.feasibleDeviation(cand, n) {
						out = append(out, cand)
					}
				}
			}
		}
	case s.Attack != "":
		// Non-ring adversary: sweep the scenario's own batch. The batch
		// may ignore the target, so out-of-range targets are filtered
		// here — the family branches get the same check from planning.
		for _, t := range targets {
			if t < 1 || t > int64(n) {
				continue
			}
			out = append(out, DeviationCandidate{Family: FamilySelf, K: p.K, Target: t})
		}
	case s.proto != nil:
		// Honest ring-simulator scenario: every applicable family within
		// the resilience bound.
		if maxK <= 0 {
			maxK = s.ResilientK(n)
		}
		for _, fam := range Families() {
			if !fam.applies(s.Topology, s.Protocol) {
				continue
			}
			for _, mode := range fam.modes() {
				for _, k := range subsample(fam.sizes(n, mode), 3) {
					if k < 1 || k > maxK {
						continue
					}
					for _, t := range targets {
						cand := DeviationCandidate{Family: fam.Name, K: k, Mode: mode, Target: t}
						if s.feasibleDeviation(cand, n) {
							out = append(out, cand)
						}
					}
				}
			}
		}
	}
	return out
}

// RegisteredDeviation returns the scenario's own point in its deviation
// space — the candidate that reproduces the registered attack run — and
// false for honest scenarios.
func (s Scenario) RegisteredDeviation(o Opts) (DeviationCandidate, bool) {
	if s.Attack == "" {
		return DeviationCandidate{}, false
	}
	p := s.params(o)
	if s.family == "" {
		return DeviationCandidate{Family: FamilySelf, K: p.K, Target: p.Target}, true
	}
	return DeviationCandidate{Family: s.family, K: p.K, Mode: s.mode, Target: p.Target}, true
}

// deviationAttack resolves a family candidate to the protocol under attack
// and the planned attack value.
func (s Scenario) deviationAttack(cand DeviationCandidate, n int) (ring.Protocol, ring.Attack, error) {
	fam, ok := FindFamily(cand.Family)
	if !ok {
		return nil, nil, fmt.Errorf("scenario: no registered deviation family %q", cand.Family)
	}
	if s.proto == nil {
		return nil, nil, fmt.Errorf("scenario: %s has no ring protocol to attack", s.Name)
	}
	proto := s.proto
	if fam.Proto != nil {
		proto = fam.Proto(n, proto)
	}
	atk, err := fam.Plan(proto, cand.K, cand.Mode)
	if err != nil {
		return nil, nil, err
	}
	return proto, atk, nil
}

// feasibleDeviation reports whether the candidate plans successfully on a
// ring of size n (probed with a fixed seed; randomized-placement families
// whose feasibility is essentially seed-independent probe representatively).
func (s Scenario) feasibleDeviation(cand DeviationCandidate, n int) bool {
	_, atk, err := s.deviationAttack(cand, n)
	if err != nil {
		return false
	}
	_, err = atk.Plan(n, cand.Target, 1)
	return err == nil
}

// RunDeviation runs one deviation candidate's trial batch against the
// scenario's configuration: the identity candidate reproduces the honest
// run (the scenario itself for honest entries, the underlying protocol for
// ring attack entries), a family candidate runs ring.AttackChunkJob exactly
// as the registered attack scenarios do — same seed derivation, same
// engine — so a sweep restricted to a scenario's own candidate is
// byte-identical to the scenario's run, and a self candidate re-runs the
// scenario's own batch at the candidate's coalition size and target.
func (s Scenario) RunDeviation(ctx context.Context, seed int64, cand DeviationCandidate, o Opts) (*ring.Distribution, error) {
	p, err := s.runParams(o)
	if err != nil {
		return nil, err
	}
	if p.Trials < 1 {
		return nil, fmt.Errorf("scenario: %s needs ≥ 1 trial, got %d", s.Name, p.Trials)
	}
	switch cand.Family {
	case "", FamilyIdentity:
		if s.Attack == "" {
			return s.batch(ctx, seed, p)
		}
		if s.proto == nil {
			return nil, fmt.Errorf("scenario: %s has no honest baseline run", s.Name)
		}
		return engineBatch(ctx, p, ring.HonestChunkJob(ring.Spec{N: p.N, Protocol: s.proto, Seed: seed}, nil))
	case FamilySelf:
		if s.Attack == "" {
			return nil, fmt.Errorf("scenario: %s is honest; the self family needs an attack run", s.Name)
		}
		p.K, p.Target = cand.K, cand.Target
		return s.batch(ctx, seed, p)
	default:
		proto, atk, err := s.deviationAttack(cand, p.N)
		if err != nil {
			return nil, err
		}
		return engineBatch(ctx, p, ring.AttackChunkJob(p.N, proto, atk, cand.Target, seed))
	}
}

// subsample keeps at most budget sizes from the ascending list: the
// smallest, the largest, and evenly spread interior points — enough to probe
// a family's range without exploding the sweep.
func subsample(sizes []int, budget int) []int {
	if len(sizes) <= budget || budget < 1 {
		return sizes
	}
	if budget == 1 {
		return sizes[:1]
	}
	out := make([]int, 0, budget)
	for i := 0; i < budget; i++ {
		out = append(out, sizes[i*(len(sizes)-1)/(budget-1)])
	}
	return dedupSizes(out)
}

// dedupSizes removes duplicates preserving first-occurrence order.
func dedupSizes(sizes []int) []int {
	seen := make(map[int]bool, len(sizes))
	out := sizes[:0:0]
	for _, k := range sizes {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// feasibleRange collects the sizes in [lo, hi] accepted by ok, ascending.
func feasibleRange(lo, hi int, ok func(k int) bool) []int {
	var out []int
	for k := lo; k <= hi; k++ {
		if ok(k) {
			out = append(out, k)
		}
	}
	return out
}

// The registered deviation families: every adversarial deviation of the
// paper, parameterized, plus the destructive abort control.
func init() {
	half := func(n int) int { return n / 2 }

	registerFamily(DeviationFamily{
		Name:       "abort",
		Topologies: []string{"ring", "wakeup"},
		Note:       "destructive control: k silent processors force FAIL, gain ≤ 0",
		Sizes: func(n int, _ string) []int {
			var out []int
			for k := 1; k <= 3 && k < n; k++ {
				out = append(out, k)
			}
			return out
		},
		DefaultK: func(int, string) int { return 1 },
		Plan: func(_ ring.Protocol, k int, _ string) (ring.Attack, error) {
			return attacks.Abort{K: k}, nil
		},
	})

	registerFamily(DeviationFamily{
		Name:      "basic-single",
		Protocols: []string{"basic-lead"},
		Note:      "Claim B.1: one value-biasing adversary cancels the Basic-LEAD sum",
		Sizes:     func(int, string) []int { return []int{1} },
		DefaultK:  func(int, string) int { return 1 },
		Plan: func(_ ring.Protocol, _ int, _ string) (ring.Attack, error) {
			return attacks.BasicSingle{}, nil
		},
	})

	registerFamily(DeviationFamily{
		Name:      "rushing",
		Protocols: []string{"a-lead"},
		Modes:     []string{"equal", "staggered"},
		Note:      "Section 4 rushing against A-LEADuni (Theorems 4.2 and 4.3)",
		Sizes: func(n int, mode string) []int {
			ok := func(k int) bool { _, err := attacks.EqualDistances(n, k); return err == nil }
			if mode == "staggered" {
				ok = func(k int) bool { _, err := attacks.StaggeredDistances(n, k); return err == nil }
			}
			return feasibleRange(2, half(n), ok)
		},
		DefaultK: func(n int, mode string) int {
			if mode == "staggered" {
				return attacks.MinCubicK(n)
			}
			return attacks.SqrtK(n)
		},
		Plan: func(_ ring.Protocol, k int, mode string) (ring.Attack, error) {
			switch mode {
			case "equal":
				return attacks.Rushing{Place: attacks.PlaceEqual, K: k}, nil
			case "staggered", "":
				return attacks.Rushing{Place: attacks.PlaceStaggered, K: k}, nil
			default:
				return nil, fmt.Errorf("scenario: unknown rushing mode %q", mode)
			}
		},
	})

	registerFamily(DeviationFamily{
		Name:      "randomized",
		Protocols: []string{"a-lead"},
		Modes:     []string{"c3", "c5"},
		Note:      "Theorem C.1: randomly located rushing coalitions (size is the expected draw)",
		Sizes: func(n int, _ string) []int {
			k := int(float64(n)*attacks.DefaultP(n) + 0.5)
			if k < 2 {
				k = 2
			}
			if k >= n {
				k = n - 1
			}
			return []int{k}
		},
		Plan: func(_ ring.Protocol, _ int, mode string) (ring.Attack, error) {
			switch mode {
			case "c3":
				return attacks.Randomized{C: 3}, nil
			case "c5":
				return attacks.Randomized{C: 5}, nil
			case "":
				return attacks.Randomized{}, nil
			default:
				return nil, fmt.Errorf("scenario: unknown randomized mode %q", mode)
			}
		},
	})

	registerFamily(DeviationFamily{
		Name:      "half-ring",
		Protocols: []string{"a-lead"},
		Note:      "Theorem 7.2 on the ring: a consecutive ⌈n/2⌉ block dictates",
		Sizes: func(n int, _ string) []int {
			lo := (n + 1) / 2
			if lo >= n {
				return nil
			}
			return dedupSizes([]int{lo, (lo + n - 1) / 2, n - 1})
		},
		DefaultK: func(n int, _ string) int { return (n + 1) / 2 },
		Plan: func(_ ring.Protocol, k int, _ string) (ring.Attack, error) {
			return attacks.HalfRing{K: k}, nil
		},
	})

	phaseModes := map[string]attacks.PhaseMode{
		"steer":      attacks.PhaseSteer,
		"besteffort": attacks.PhaseBestEffort,
		"nosteer":    attacks.PhaseNoSteer,
		"chase":      attacks.PhaseChase,
	}
	registerFamily(DeviationFamily{
		Name:      "phase-rushing",
		Protocols: []string{"phase-lead"},
		Modes:     []string{"steer", "besteffort", "nosteer", "chase"},
		Note:      "Section 6 tightness: rushing against PhaseAsyncLead across steering modes",
		Sizes: func(n int, _ string) []int {
			lo := floorSqrtTenth(n)
			if lo < 3 {
				lo = 3
			}
			return dedupSizes([]int{lo, attacks.SqrtK(n), attacks.SqrtK(n) + 3})
		},
		DefaultK: func(n int, _ string) int { return attacks.SqrtK(n) + 3 },
		Plan: func(proto ring.Protocol, k int, mode string) (ring.Attack, error) {
			pp, ok := proto.(phaselead.Protocol)
			if !ok {
				return nil, fmt.Errorf("scenario: phase-rushing needs a PhaseAsyncLead protocol, got %s", proto.Name())
			}
			m, ok := phaseModes[mode]
			if !ok && mode != "" {
				return nil, fmt.Errorf("scenario: unknown phase-rushing mode %q", mode)
			}
			return attacks.PhaseRushing{Protocol: pp, K: k, Mode: m}, nil
		},
	})

	registerFamily(DeviationFamily{
		Name:      "sum-phase",
		Protocols: []string{"sum-phase", "phase-lead"},
		Note:      "Appendix E.4: four colluders against the sum-output phase variant",
		Sizes:     func(int, string) []int { return []int{4} },
		DefaultK:  func(int, string) int { return 4 },
		Plan: func(_ ring.Protocol, _ int, _ string) (ring.Attack, error) {
			return attacks.SumPhase{}, nil
		},
	})

	registerFamily(DeviationFamily{
		Name:       "wakeup-rushing",
		Protocols:  []string{"a-lead"},
		Topologies: []string{"wakeup"},
		Note:       "Appendix H: the staggered rushing attack lifted over the wake-up exchange",
		Sizes: func(n int, _ string) []int {
			return subsample(feasibleRange(2, half(n), func(k int) bool {
				_, err := attacks.StaggeredDistances(n, k)
				return err == nil
			}), 3)
		},
		DefaultK: func(n int, _ string) int { return attacks.MinCubicK(n) },
		Plan: func(_ ring.Protocol, k int, _ string) (ring.Attack, error) {
			return attacks.WakeupRushing{Inner: attacks.Rushing{Place: attacks.PlaceStaggered, K: k}}, nil
		},
		Proto: func(n int, _ ring.Protocol) ring.Protocol {
			return attacks.WakeupRushing{}.Protocol(n)
		},
	})
}
