package scenario

import (
	"reflect"
	"testing"

	"repro/internal/ring"
	"repro/internal/sim"
)

// TestSingleRunMatchesBatchTrial pins single executions to the batch: for
// every FIFO ring scenario, honest and attacked, trial t of the scenario's
// chunked job must equal the single run under trial t's seed, Result for
// Result. The chunk is one lane block plus one trial, so lane protocols
// check their lane executions and their scalar path. A single run that
// planned another family, lifted the protocol differently, or derived its
// coalition from another seed fails here.
func TestSingleRunMatchesBatchTrial(t *testing.T) {
	const seed, trials = 20180516, ring.Lanes + 1
	pairs := 0
	for _, s := range All() {
		if s.proto == nil || s.Scheduler != SchedFIFO {
			continue
		}
		p := s.params(Opts{})
		job, err := s.chunks(seed, p)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		var batch []sim.Result
		if _, err := job.RunChunk(0, trials, sim.NewArena(), func(res sim.Result) { batch = append(batch, res.Clone()) }); err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for tr, got := range batch {
			ts := ring.TrialSeed(seed, tr)
			if s.family != "" {
				// The attack batches' seed mix (ring.AttackChunkJob).
				ts = int64(sim.Mix64(uint64(seed), uint64(tr)+0x9e37))
			}
			want, err := s.single(ts, nil, p, nil)
			if err != nil {
				t.Fatalf("%s trial %d: %v", s.Name, tr, err)
			}
			if !reflect.DeepEqual(got, want.Clone()) {
				t.Fatalf("%s trial %d: batch %+v, single run %+v", s.Name, tr, got, want)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no FIFO ring scenarios exercised")
	}
	t.Logf("verified %d batch-trial/single-run pairs", pairs)
}
