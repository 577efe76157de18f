package equilibrium

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// TestIdentityCertifiesFairEverywhere is the no-op property: on every
// catalog scenario whose deviation space carries the identity candidate,
// the honest run's gain over the 1/n baseline resolves below ε — its
// position-corrected Wilson upper bound comes down under the threshold
// within the 2000-trial budget. This is the zero point the whole
// certification scale hangs from: if the identity ever certified a gain,
// every fairness verdict would be noise.
func TestIdentityCertifiesFairEverywhere(t *testing.T) {
	const (
		seed   = 20180516
		eps    = DefaultEpsilon
		trials = DefaultTrials
		minTr  = DefaultMinTrials
		alpha  = DefaultAlpha
	)
	ctx := context.Background()
	checked := 0
	for _, sc := range scenario.All() {
		sc := sc
		space := sc.DeviationSpace(scenario.Opts{}, 0, nil)
		if len(space) == 0 || space[0].Family != scenario.FamilyIdentity {
			continue
		}
		t.Run(sc.Name, func(t *testing.T) {
			n := sc.N
			baseline := 1 / float64(n)
			z := stats.BonferroniZ(alpha, n)
			opts := scenario.Opts{
				Trials: trials,
				Stop:   stopRule(space[0], z, baseline+eps, minTr),
			}
			dist, err := sc.RunDeviation(ctx, seed, space[0], opts)
			if err != nil {
				t.Fatal(err)
			}
			wins, leader := winCell(dist, space[0])
			_, hi := stats.WilsonInterval(wins, dist.Trials, z)
			if gainHi := hi - baseline; gainHi >= eps {
				t.Errorf("identity gain upper bound %.4f ≥ ε=%.2f after %d trials (leader %d at %d wins)",
					gainHi, eps, dist.Trials, leader, wins)
			}
		})
		checked++
	}
	if checked < 30 {
		t.Fatalf("identity checked on only %d scenarios", checked)
	}
}

// TestCertificateDeterministicAcrossWorkers reruns representative sweeps at
// different worker counts and demands byte-identical certificates: the
// early-stopping points, the arg-max, the digests — everything. The sweeps
// hold 3, 7 and 2 candidates, so the counts cover one lane, fewer lanes than
// candidates, and more workers than candidates (split lanes).
func TestCertificateDeterministicAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	for _, name := range []string{
		"ring/basic-lead/attack=basic-single",
		"ring/sum-phase/fifo",
		"tree-path/convergecast/attack=dictator-root",
	} {
		sc := scenario.MustFind(name)
		var blobs [][]byte
		for _, workers := range []int{1, 2, 3, 8, 0} {
			cert, err := Certify(ctx, sc, 7, Options{Trials: 400, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			b, err := json.Marshal(cert)
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, b)
		}
		for i := 1; i < len(blobs); i++ {
			if !bytes.Equal(blobs[0], blobs[i]) {
				t.Errorf("%s: certificate differs between worker counts:\n%s\nvs\n%s", name, blobs[0], blobs[i])
			}
		}
	}
}

// TestPhaseLeadTightnessRecoversPhaseRushing is the statistical regression
// for the paper's Section 6 tightness result: certifying the phase-lead
// attack scenarios must find them exploitable with the steering
// PhaseRushing deviation as (or tied with) the arg-max, at near-total gain.
func TestPhaseLeadTightnessRecoversPhaseRushing(t *testing.T) {
	if testing.Short() {
		t.Skip("phase sweeps are the expensive ones")
	}
	ctx := context.Background()
	opts := Options{N: 64, Trials: 400}
	for _, name := range []string{
		"ring/phase-lead/attack=phase-rushing",
		"ring/phase-lead/attack=phase-chase",
		"ring/phase-lead/attack=phase-nosteer",
	} {
		cert, err := Certify(ctx, scenario.MustFind(name), 20180516, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cert.Verdict != VerdictExploitable {
			t.Errorf("%s: verdict %s, want exploitable", name, cert.Verdict)
		}
		best := cert.Best()
		if best == nil {
			t.Fatalf("%s: no feasible candidate", name)
		}
		if best.Candidate.Family != "phase-rushing" || best.Candidate.Mode != "steer" {
			// The arg-max must be the steering attack or within its CI.
			var steerLo float64
			for _, r := range cert.Candidates {
				if r.Candidate.Mode == "steer" && !r.Infeasible && r.GainLo > steerLo {
					steerLo = r.GainLo
				}
			}
			if best.GainHi < steerLo {
				t.Errorf("%s: arg-max %s (gain %.3f) below the steering attack's lower bound %.3f",
					name, best.Candidate, best.Gain, steerLo)
			}
		}
		if best.Gain < 0.9 {
			t.Errorf("%s: arg-max gain %.3f, want ≈ 1−1/n", name, best.Gain)
		}
	}
	// The honest protocol at the same threshold stays fair: tightness cuts
	// exactly at the resilience bound.
	cert, err := Certify(ctx, scenario.MustFind("ring/phase-lead/fifo"), 20180516, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert.Verdict != VerdictFair {
		t.Errorf("honest phase-lead: verdict %s, want fair", cert.Verdict)
	}
}

// TestCertifyAllCoversCatalog checks the sweep runs to a verdict on every
// registered scenario at a reduced budget, with sane certificate anatomy.
func TestCertifyAllCoversCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog sweep")
	}
	certs, err := CertifyAll(context.Background(), 20180516, Options{Trials: 200, MinTrials: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(certs) != len(scenario.All()) {
		t.Fatalf("%d certificates for %d scenarios", len(certs), len(scenario.All()))
	}
	for _, c := range certs {
		switch c.Verdict {
		case VerdictFair, VerdictExploitable, VerdictInconclusive:
		default:
			t.Errorf("%s: bad verdict %q", c.Scenario, c.Verdict)
		}
		if len(c.Candidates) == 0 {
			t.Errorf("%s: no candidates", c.Scenario)
		}
		if c.Key == "" || len(c.Key) != 64 {
			t.Errorf("%s: bad certificate key %q", c.Scenario, c.Key)
		}
		if best := c.Best(); best != nil && len(best.Digest) != 64 {
			t.Errorf("%s: bad arg-max digest %q", c.Scenario, best.Digest)
		}
		if strings.Contains(c.Scenario, "attack=phase-rushing") && c.Verdict != VerdictExploitable {
			t.Errorf("%s: verdict %s, want exploitable even at the reduced budget", c.Scenario, c.Verdict)
		}
	}
}

// TestKeys pins the content-address behaviour: Certify's recorded key
// matches the standalone Key, and every identity-relevant knob moves it.
func TestKeys(t *testing.T) {
	sc := scenario.MustFind("ring/basic-lead/fifo")
	base := Options{Trials: 100}
	cert, err := Certify(context.Background(), sc, 3, base)
	if err != nil {
		t.Fatal(err)
	}
	if want := Key(sc, 3, base); cert.Key != want {
		t.Errorf("certificate key %s, standalone Key %s", cert.Key, want)
	}
	// Workers must not move the key; everything identity-relevant must.
	if Key(sc, 3, Options{Trials: 100, Workers: 8}) != cert.Key {
		t.Error("workers moved the key")
	}
	distinct := map[string]string{
		"seed":    Key(sc, 4, base),
		"trials":  Key(sc, 3, Options{Trials: 101}),
		"eps":     Key(sc, 3, Options{Trials: 100, Epsilon: 0.01}),
		"alpha":   Key(sc, 3, Options{Trials: 100, Alpha: 0.01}),
		"n":       Key(sc, 3, Options{Trials: 100, N: 8}),
		"maxk":    Key(sc, 3, Options{Trials: 100, MaxK: 2}),
		"nostop":  Key(sc, 3, Options{Trials: 100, NoStop: true}),
		"version": Key(sc, 3, Options{Trials: 100, Version: "v2"}),
		"targets": Key(sc, 3, Options{Trials: 100, Targets: []int64{5}}),
	}
	seen := map[string]string{cert.Key: "base"}
	for knob, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision between %s and %s", knob, prev)
		}
		seen[k] = knob
	}
}
