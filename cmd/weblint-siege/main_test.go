package main

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"weblint/internal/corpus"
	"weblint/internal/gateway"
	"weblint/internal/resultcache"
	"weblint/internal/serve"
)

// TestSiegeAgainstGateway drives the siege loop against a real
// in-process gateway and checks every outcome lands in a bucket.
func TestSiegeAgainstGateway(t *testing.T) {
	h := gateway.NewHandler(nil)
	srv := httptest.NewServer(h)
	defer srv.Close()

	docs := []string{corpus.GenerateSized(1, 4<<10, corpus.Uniform(0.05))}
	client := &http.Client{Timeout: 10 * time.Second}
	res := siege(client, srv.URL+"/", docs, 4, 32, "html")

	if res.OK != 32 {
		t.Fatalf("ok = %d of 32 (429=%d 504=%d other=%d transport=%d)",
			res.OK, res.Rejected429, res.DeadlineExceeded, res.OtherStatus, res.TransportErrors)
	}
	if res.P50Ms <= 0 || res.P99Ms < res.P50Ms || res.MaxMs < res.P99Ms {
		t.Fatalf("implausible percentiles: p50=%v p99=%v max=%v", res.P50Ms, res.P99Ms, res.MaxMs)
	}
	if res.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", res.ThroughputRPS)
	}
}

// TestSiegeClassifies429 saturates a one-slot zero-wait gateway and
// checks shed requests are counted as rejections, not errors.
func TestSiegeClassifies429(t *testing.T) {
	h := gateway.NewHandler(nil)
	h.Limiter = serve.NewLimiter(1, 0)
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Documents big enough that lints overlap under 8 connections, and
	// one per connection: concurrent submissions of one document would
	// coalesce into a single lint and never contend for the slot.
	docs := make([]string, 8)
	for i := range docs {
		docs[i] = corpus.GenerateSized(int64(i+1), 256<<10, corpus.Uniform(0.05))
	}
	client := &http.Client{Timeout: 10 * time.Second}
	res := siege(client, srv.URL+"/", docs, 8, 64, "html")

	if res.TransportErrors != 0 || res.OtherStatus != 0 {
		t.Fatalf("unexpected failures: other=%d transport=%d", res.OtherStatus, res.TransportErrors)
	}
	if res.OK+res.Rejected429 != 64 {
		t.Fatalf("ok=%d + 429=%d != 64", res.OK, res.Rejected429)
	}
	if res.Rejected429 == 0 {
		t.Error("one slot with no queue under 8 connections shed nothing")
	}
}

// TestSiegeClassifiesCacheDispositions drives the siege loop against
// a cached gateway: repeats of one document must classify as one miss
// plus hits, and the server-side counters must reconcile exactly with
// the client-side classification.
func TestSiegeClassifiesCacheDispositions(t *testing.T) {
	h := gateway.NewHandler(nil)
	h.Cache = resultcache.New(1 << 20)
	h.Metrics = gateway.NewMetrics()
	srv := httptest.NewServer(h.Mux(nil, nil))
	defer srv.Close()

	docs := []string{corpus.GenerateSized(1, 4<<10, corpus.Uniform(0.05))}
	client := &http.Client{Timeout: 10 * time.Second}
	res := siege(client, srv.URL+"/", docs, 1, 16, "json")

	if res.OK != 16 {
		t.Fatalf("ok = %d of 16", res.OK)
	}
	if res.CacheMisses != 1 || res.CacheHits != 15 || res.CacheCoalesced != 0 {
		t.Fatalf("classification: miss=%d hit=%d coalesced=%d, want 1/15/0",
			res.CacheMisses, res.CacheHits, res.CacheCoalesced)
	}
	if res.CacheHitRate < 0.93 || res.CacheHitRate > 0.94 {
		t.Fatalf("hit rate = %v, want 15/16", res.CacheHitRate)
	}
	if res.HitP50Ms <= 0 || res.MissP50Ms <= 0 {
		t.Fatalf("split p50s missing: hit=%v miss=%v", res.HitP50Ms, res.MissP50Ms)
	}
	if h.Metrics.CacheHits.Value() != res.CacheHits ||
		h.Metrics.CacheMisses.Value() != res.CacheMisses ||
		h.Metrics.CacheCoalesced.Value() != res.CacheCoalesced {
		t.Fatalf("server counters (h=%d m=%d c=%d) do not reconcile with the client's (h=%d m=%d c=%d)",
			h.Metrics.CacheHits.Value(), h.Metrics.CacheMisses.Value(), h.Metrics.CacheCoalesced.Value(),
			res.CacheHits, res.CacheMisses, res.CacheCoalesced)
	}
}

// TestBuildSchedule pins the schedule generator's contract: ratio 0
// is the legacy rotating corpus; a repeat-heavy ratio produces a
// schedule whose duplicate fraction can actually hit the cache; and
// the schedule is deterministic across runs.
func TestBuildSchedule(t *testing.T) {
	legacy := buildSchedule(16, 1<<10, 0.05, 0, 100)
	if len(legacy) != 16 {
		t.Fatalf("ratio 0 produced %d docs, want the 16-doc rotating corpus", len(legacy))
	}

	const total = 200
	s1 := buildSchedule(16, 1<<10, 0.05, 0.8, total)
	s2 := buildSchedule(16, 1<<10, 0.05, 0.8, total)
	if len(s1) != total {
		t.Fatalf("schedule length = %d, want %d", len(s1), total)
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("schedule is not deterministic across runs")
		}
	}
	seen := map[string]int{}
	for _, d := range s1 {
		seen[d]++
	}
	repeats := 0
	for _, n := range seen {
		if n > 1 {
			repeats += n
		}
	}
	// At ratio 0.8 roughly 80% of requests re-submit a popular doc;
	// allow slack for the seeded draw.
	if float64(repeats)/total < 0.7 {
		t.Fatalf("only %d/%d requests are repeats at ratio 0.8", repeats, total)
	}
}
