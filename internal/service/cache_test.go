package service

import (
	"bytes"
	"context"
	"fmt"
	"testing"
)

// oneByte is the budget that holds exactly k one-byte results.
func oneByte(k int) int64 { return int64(k) * charge([]byte{0}) }

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := NewCache(oneByte(2))
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	evicted := c.Put("c", []byte("3"))
	if len(evicted) != 1 || evicted[0] != "a" {
		t.Fatalf("evicted %v, want [a]", evicted)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("evicted entry still served")
	}
	if b, ok := c.Get("c"); !ok || !bytes.Equal(b, []byte("3")) {
		t.Fatalf("newest entry lost: %q %v", b, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	hits, misses := c.Lookups()
	if hits != 1 || misses != 1 {
		t.Fatalf("lookups = %d/%d, want 1 hit 1 miss", hits, misses)
	}
}

// TestCacheGetRefreshesRecency pins true LRU semantics: a Get moves the
// entry to the most-recent position, so the untouched entry is the one
// evicted — insertion order alone must not decide.
func TestCacheGetRefreshesRecency(t *testing.T) {
	c := NewCache(oneByte(2))
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("entry a lost before capacity reached")
	}
	evicted := c.Put("c", []byte("3"))
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b] — Get(a) should have refreshed a", evicted)
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
}

// TestCacheHotEntrySurvivesChurn pins the property the LRU rewrite exists
// for: a repeatedly hit entry survives arbitrary capacity churn from cold
// one-shot entries, where the old FIFO policy would have aged it out by
// insertion time regardless of use.
func TestCacheHotEntrySurvivesChurn(t *testing.T) {
	c := NewCache(oneByte(3))
	c.Put("hot", []byte("h"))
	for i := 0; i < 50; i++ {
		if _, ok := c.Get("hot"); !ok {
			t.Fatalf("hot entry evicted after %d cold inserts", i)
		}
		c.Put(fmt.Sprintf("cold%d", i), []byte{byte(i)})
	}
	if b, ok := c.Get("hot"); !ok || string(b) != "h" {
		t.Fatalf("hot entry lost to cold churn: %q %v", b, ok)
	}
}

func TestCacheFirstPutWins(t *testing.T) {
	c := NewCache(oneByte(4))
	c.Put("k", []byte("first"))
	if evicted := c.Put("k", []byte("second")); evicted != nil {
		t.Fatalf("duplicate put evicted %v", evicted)
	}
	b, ok := c.Get("k")
	if !ok || string(b) != "first" {
		t.Fatalf("got %q, want the first computation's bytes", b)
	}
	if c.Len() != 1 {
		t.Fatalf("len = %d after duplicate put, want 1", c.Len())
	}
}

// TestCacheRePutRefreshesRecency pins that a duplicate Put, while keeping
// the original bytes, still counts as use: the re-put key outlives an
// older untouched one.
func TestCacheRePutRefreshesRecency(t *testing.T) {
	c := NewCache(oneByte(2))
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Put("a", []byte("ignored"))
	evicted := c.Put("c", []byte("3"))
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
}

// TestCacheDefaultBytes pins the zero budget: DefaultCacheBytes, 2 MiB,
// filled to exactly as many one-byte results as it can hold.
func TestCacheDefaultBytes(t *testing.T) {
	if DefaultCacheBytes != 2<<20 {
		t.Fatalf("DefaultCacheBytes = %d, want 2 MiB", DefaultCacheBytes)
	}
	c := NewCache(0)
	fit := int(DefaultCacheBytes / charge([]byte{0}))
	for i := 0; i < fit+5; i++ {
		c.Put(fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	if c.Len() != fit || c.Bytes() != int64(fit)*charge([]byte{0}) {
		t.Fatalf("len %d, %d bytes; want %d one-byte results in the default budget", c.Len(), c.Bytes(), fit)
	}
}

// TestCacheEvictsByBytes pins the byte budget: each entry is charged its
// length plus entryOverhead, a large result evicts as many older entries as
// it needs, least recently used first, and the newest entry stays even
// when it alone is over budget.
func TestCacheEvictsByBytes(t *testing.T) {
	const budget = 4 * entryOverhead
	c := NewCache(budget)
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Get("a")
	if want := 2 * charge([]byte{0}); c.Bytes() != want {
		t.Fatalf("bytes = %d, want %d", c.Bytes(), want)
	}
	big := make([]byte, entryOverhead)
	if evicted := c.Put("big", big); len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if want := charge([]byte{0}) + charge(big); c.Bytes() != want || c.Len() != 2 {
		t.Fatalf("%d entries, %d bytes; want 2 entries, %d bytes", c.Len(), c.Bytes(), want)
	}
	huge := make([]byte, budget)
	if evicted := c.Put("huge", huge); len(evicted) != 2 || evicted[0] != "a" || evicted[1] != "big" {
		t.Fatalf("evicted %v, want [a big]", evicted)
	}
	if b, ok := c.Get("huge"); !ok || len(b) != budget || c.Bytes() != charge(huge) {
		t.Fatalf("newest entry lost (held %v, %d bytes)", ok, c.Bytes())
	}
	if evicted := c.Put("c", []byte("3")); len(evicted) != 1 || evicted[0] != "huge" {
		t.Fatalf("evicted %v, want [huge]", evicted)
	}
	if c.Len() != 1 || c.Bytes() != charge([]byte{0}) {
		t.Fatalf("%d entries, %d bytes after the over-budget entry left", c.Len(), c.Bytes())
	}
}

// TestCacheTouchRefreshesRecency pins Touch: it counts as use, like Get,
// but is not a lookup.
func TestCacheTouchRefreshesRecency(t *testing.T) {
	c := NewCache(oneByte(2))
	c.Put("a", []byte("1"))
	c.Put("b", []byte("2"))
	c.Touch("a")
	c.Touch("missing")
	if evicted := c.Put("c", []byte("3")); len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b] — Touch(a) should have refreshed a", evicted)
	}
	if hits, misses := c.Lookups(); hits != 0 || misses != 0 {
		t.Fatalf("lookups = %d/%d after Touch, want none", hits, misses)
	}
}

// TestReplayRefreshesRecency pins recency through the scheduler: a replay
// of a finished job, which the scheduler answers from the job's record, is
// still a use of its cache entry. With room for two results, finish A and
// B, replay A, then finish C: B must be the one evicted, so A's next replay
// runs no engine and B's resubmission runs fresh.
func TestReplayRefreshesRecency(t *testing.T) {
	srv, client := newTestServer(t, Config{CacheBytes: 3 * entryOverhead})
	req := func(seed int64) JobRequest {
		return JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 60, Seed: seed}
	}
	a, b, c := req(91), req(92), req(93)
	fresh := func() int64 { return srv.Scheduler().Stats().Jobs.Fresh }
	for _, r := range []JobRequest{a, b, a, c} {
		final := waitResult(t, client, r)
		if final.Status != StatusDone {
			t.Fatalf("seed %d ended %s: %s", r.Seed, final.Status, final.Error)
		}
		if len(final.Result) > entryOverhead/2 {
			t.Fatalf("seed %d: %d-byte result; the budget would no longer hold exactly two", r.Seed, len(final.Result))
		}
	}
	if got := fresh(); got != 3 {
		t.Fatalf("%d fresh runs for A, B, replayed A and C, want 3", got)
	}
	if got := srv.Scheduler().Stats().Cache.Entries; got != 2 {
		t.Fatalf("cache holds %d results, want 2", got)
	}
	if final := waitResult(t, client, a); final.Status != StatusDone || fresh() != 3 {
		t.Fatalf("replayed A ran fresh (status %s, %d fresh runs): its replay did not refresh it", final.Status, fresh())
	}
	if final := waitResult(t, client, b); final.Status != StatusDone || fresh() != 4 {
		t.Fatalf("B was not evicted (status %s, %d fresh runs, want 4)", final.Status, fresh())
	}
}

// TestStatzCacheBytesStayWithinBudget churns distinct jobs through a small
// budget: after every job, /statz must report cache.bytes within the
// budget and at least one entry, and the churn must have evicted.
func TestStatzCacheBytesStayWithinBudget(t *testing.T) {
	const budget, jobs = 4 * entryOverhead, 12
	_, client := newTestServer(t, Config{CacheBytes: budget})
	ctx := context.Background()
	for seed := int64(0); seed < jobs; seed++ {
		req := JobRequest{Scenario: "ring/basic-lead/fifo", N: 8, Trials: 20, Seed: 500 + seed}
		if final := waitResult(t, client, req); final.Status != StatusDone {
			t.Fatalf("seed %d ended %s: %s", req.Seed, final.Status, final.Error)
		}
		st, err := client.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Cache.Bytes > budget || st.Cache.Entries < 1 || st.Cache.Bytes < int64(st.Cache.Entries)*entryOverhead {
			t.Fatalf("after %d jobs /statz reports %d entries in %d bytes, budget %d",
				seed+1, st.Cache.Entries, st.Cache.Bytes, budget)
		}
		if seed == jobs-1 && st.Cache.Entries >= jobs {
			t.Fatalf("%d entries after %d distinct jobs: nothing was evicted", st.Cache.Entries, jobs)
		}
	}
}
