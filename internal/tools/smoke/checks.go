package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"

	"repro/internal/equilibrium"
	"repro/internal/scenario"
	"repro/internal/service"
)

// builtin is the scenario registry as the process starts, before the dsl
// reference registers its generated specs: the catalog a daemon started
// without -mar serves. The phases pick from it and check against it, so
// they run the same in any order and on a second pass in one process.
var builtin = scenario.All()

// pickDistinct selects count cheap built-in scenarios, honest ones first
// and attacks only if too few honest ones exist, each at its smallest size
// from 8 up, skipping sizes above maxN (0 = no cap). Seeds count up from
// seedBase, so the batch mixes distinct content addresses.
func pickDistinct(count, trials int, seedBase int64, maxN int) []service.JobRequest {
	var reqs []service.JobRequest
	for _, attacks := range []bool{false, true} {
		for _, s := range builtin {
			n := max(8, s.MinN)
			if len(reqs) == count || (s.Attack != "") != attacks || (maxN > 0 && n > maxN) {
				continue
			}
			reqs = append(reqs, service.JobRequest{Scenario: s.Name, N: n, Trials: trials, Seed: seedBase + int64(len(reqs))})
		}
	}
	return reqs
}

// checkCatalog requires the daemon's catalog to be exactly the built-in
// registry plus dsl, the scenarios of the generated specs the daemon was
// started with. It compares against builtin, not the live registry, which
// also holds the dsl reference's scenarios once a dsl phase has run in this
// process.
func checkCatalog(ctx context.Context, c *service.Client, dsl ...string) error {
	catalog, err := c.Scenarios(ctx)
	if err != nil {
		return fmt.Errorf("scenarios: %w", err)
	}
	if want := len(builtin) + len(dsl); len(catalog) != want {
		return fmt.Errorf("daemon lists %d scenarios, want %d (%d built in, %d generated)",
			len(catalog), want, len(builtin), len(dsl))
	}
	want := slices.Clone(dsl)
	for _, s := range builtin {
		want = append(want, s.Name)
	}
	for _, name := range want {
		if !slices.ContainsFunc(catalog, func(d scenario.Descriptor) bool { return d.Name == name }) {
			return fmt.Errorf("daemon catalog is missing scenario %s", name)
		}
	}
	return nil
}

// awaitDirect waits on trial job id, submitted as req, and returns its
// result bytes. The job must end done, with the bytes a direct in-process
// run of req produces: the service adds transport, never drift.
func awaitDirect(ctx context.Context, c *service.Client, id string, req service.JobRequest) ([]byte, error) {
	final, err := c.Wait(ctx, id)
	if err != nil {
		return nil, fmt.Errorf("wait %s: %w", id, err)
	}
	switch {
	case final.Status != service.StatusDone:
		return nil, fmt.Errorf("job %s (%s) finished %s: %s", id, req.Scenario, final.Status, final.Error)
	case len(final.Result) == 0:
		return nil, fmt.Errorf("job %s (%s) finished without result bytes", id, req.Scenario)
	}
	sc, ok := scenario.Find(req.Scenario)
	if !ok {
		return nil, fmt.Errorf("scenario %q is not registered in-process", req.Scenario)
	}
	out, err := sc.RunOpts(ctx, req.Seed, scenario.Opts{N: req.N, Trials: req.Trials, K: req.K, Target: req.Target})
	if err != nil {
		return nil, fmt.Errorf("direct run %s: %w", req.Scenario, err)
	}
	want, err := json.Marshal(out)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(final.Result, want) {
		return nil, fmt.Errorf("daemon result for %s differs from the direct run:\ndaemon: %s\ndirect: %s", req.Scenario, final.Result, want)
	}
	return final.Result, nil
}

// awaitCert watches a certification sweep to its end, handing every
// streamed state to fn (nil for none), and decodes its certificate: the
// sweep must end done, and the certificate must carry the job's ID and a
// verdict.
func awaitCert(ctx context.Context, c *service.Client, id string, fn func(service.CertState)) (*equilibrium.Certificate, []byte, error) {
	final, err := c.WatchCert(ctx, id, fn)
	if err != nil {
		return nil, nil, fmt.Errorf("watch %s: %w", id, err)
	}
	if final.Status != service.StatusDone {
		return nil, nil, fmt.Errorf("sweep %s (%s) finished %s: %s", id, final.Scenario, final.Status, final.Error)
	}
	var cert equilibrium.Certificate
	if err := json.Unmarshal(final.Result, &cert); err != nil {
		return nil, nil, fmt.Errorf("sweep %s: bad certificate bytes: %w", id, err)
	}
	if cert.Key != id {
		return nil, nil, fmt.Errorf("sweep %s: certificate key %s diverges from its job id", id, cert.Key)
	}
	verdicts := []equilibrium.Verdict{equilibrium.VerdictFair, equilibrium.VerdictExploitable, equilibrium.VerdictInconclusive}
	if !slices.Contains(verdicts, cert.Verdict) {
		return nil, nil, fmt.Errorf("sweep %s (%s): certificate carries no verdict: %s", id, final.Scenario, final.Result)
	}
	return &cert, final.Result, nil
}

// jobView and certView read what replay checks of the two wire states.
func jobView(s service.JobState) (string, service.JobStatus, []byte) {
	return s.ID, s.Status, s.Result
}

func certView(s service.CertState) (string, service.JobStatus, []byte) {
	return s.ID, s.Status, s.Result
}

// replay resubmits batch: every job must come back done at once, from a
// cache, with the bytes its first run produced (first, by job ID).
func replay[R, S any](ctx context.Context, submit func(context.Context, []R) ([]S, error),
	view func(S) (string, service.JobStatus, []byte), batch []R, first map[string][]byte) error {
	states, err := submit(ctx, batch)
	if err != nil {
		return fmt.Errorf("resubmit: %w", err)
	}
	for i, s := range states {
		id, status, result := view(s)
		if status != service.StatusDone {
			return fmt.Errorf("replay %d (%+v) not served from cache: status %s", i, batch[i], status)
		}
		if !bytes.Equal(result, first[id]) {
			return fmt.Errorf("replay %d (%+v) bytes differ from the first run", i, batch[i])
		}
	}
	return nil
}
