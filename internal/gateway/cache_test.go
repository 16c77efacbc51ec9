package gateway

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weblint/internal/config"
	"weblint/internal/faultinject"
	"weblint/internal/lint"
	"weblint/internal/resultcache"
	"weblint/internal/serve"
)

// cachedHandler builds a gateway with the content-addressed path and
// metrics on, the way cmd/weblint-gateway wires it by default.
func cachedHandler() *Handler {
	h := NewHandler(nil)
	h.Cache = resultcache.New(1 << 20)
	h.Metrics = NewMetrics()
	return h
}

func TestCacheHitMissHeadersAndETag(t *testing.T) {
	h := cachedHandler()

	rec1 := postValues(h, url.Values{"html": {brokenPage}})
	if rec1.Code != http.StatusOK {
		t.Fatalf("first submission: %d", rec1.Code)
	}
	if got := rec1.Header().Get("X-Weblint-Cache"); got != "miss" {
		t.Fatalf("first submission X-Weblint-Cache = %q, want miss", got)
	}
	etag := rec1.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("ETag = %q, want a quoted validator", etag)
	}

	rec2 := postValues(h, url.Values{"html": {brokenPage}})
	if got := rec2.Header().Get("X-Weblint-Cache"); got != "hit" {
		t.Fatalf("repeat submission X-Weblint-Cache = %q, want hit", got)
	}
	if rec2.Header().Get("ETag") != etag {
		t.Fatal("repeat submission changed the ETag for identical content")
	}
	if rec1.Body.String() != rec2.Body.String() {
		t.Fatal("hit and miss rendered different reports")
	}
	if h.Metrics.CacheMisses.Value() != 1 || h.Metrics.CacheHits.Value() != 1 {
		t.Fatalf("counters: misses=%d hits=%d, want 1/1",
			h.Metrics.CacheMisses.Value(), h.Metrics.CacheHits.Value())
	}
}

// TestFormatVariationsShareOneEntry: the cache stores the finding
// stream, not rendered bytes, so one entry feeds every renderer.
func TestFormatVariationsShareOneEntry(t *testing.T) {
	h := cachedHandler()

	for i, format := range []string{"html", "json", "sarif", "fixed", "baseline"} {
		rec := postValues(h, url.Values{"html": {brokenPage}, "format": {format}})
		if rec.Code != http.StatusOK {
			t.Fatalf("format=%s: %d", format, rec.Code)
		}
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if got := rec.Header().Get("X-Weblint-Cache"); got != want {
			t.Fatalf("format=%s X-Weblint-Cache = %q, want %s", format, got, want)
		}
	}
	if h.Cache.Len() != 1 {
		t.Fatalf("five formats created %d entries, want 1", h.Cache.Len())
	}
	if m, hits := h.Metrics.CacheMisses.Value(), h.Metrics.CacheHits.Value(); m != 1 || hits != 4 {
		t.Fatalf("counters: misses=%d hits=%d, want 1/4", m, hits)
	}
}

// TestBaselineDiffServedFromCache: a baseline= diff request replays
// the cached stream through the baseline filter — the hit still
// classifies new vs known findings.
func TestBaselineDiffServedFromCache(t *testing.T) {
	h := cachedHandler()

	// Record a baseline of the page (miss; populates the cache).
	rec := postValues(h, url.Values{"html": {brokenPage}, "format": {"baseline"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline recording: %d", rec.Code)
	}
	base := rec.Body.String()

	// Diff against it from the cache: everything is known, zero new.
	rec = postValues(h, url.Values{"html": {brokenPage}, "format": {"sarif"}, "baseline": {base}})
	if rec.Code != http.StatusOK {
		t.Fatalf("baseline diff: %d", rec.Code)
	}
	if got := rec.Header().Get("X-Weblint-Cache"); got != "hit" {
		t.Fatalf("diff X-Weblint-Cache = %q, want hit", got)
	}
	if got := rec.Header().Get("X-Weblint-New-Findings"); got != "0" {
		t.Fatalf("X-Weblint-New-Findings = %q against the page's own baseline, want 0", got)
	}
}

// TestDistinctConfigsNeverCollide: two gateways sharing one cache but
// configured differently must not serve each other's results.
func TestDistinctConfigsNeverCollide(t *testing.T) {
	cache := resultcache.New(1 << 20)

	def := NewHandler(nil)
	def.Cache = cache

	s := config.NewSettings()
	s.HTMLVersion = "HTML 3.2"
	old := NewHandler(lint.MustNew(lint.Options{Settings: s}))
	old.Cache = cache

	if def.Linter.ConfigFingerprint() == old.Linter.ConfigFingerprint() {
		t.Fatal("different configurations share a fingerprint")
	}

	rec := postValues(def, url.Values{"html": {brokenPage}})
	if got := rec.Header().Get("X-Weblint-Cache"); got != "miss" {
		t.Fatalf("default config first check = %q, want miss", got)
	}
	// Same document, different config: must be a miss, not a replay of
	// the other configuration's findings.
	rec = postValues(old, url.Values{"html": {brokenPage}})
	if got := rec.Header().Get("X-Weblint-Cache"); got != "miss" {
		t.Fatalf("HTML 3.2 config got %q for a document only checked under the default config", got)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d entries for 2 configs, want 2", cache.Len())
	}
}

func TestIfNoneMatchAnswers304(t *testing.T) {
	h := cachedHandler()

	rec := postValues(h, url.Values{"html": {brokenPage}})
	etag := rec.Header().Get("ETag")

	req := httptest.NewRequest("POST", "/", strings.NewReader(url.Values{"html": {brokenPage}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("If-None-Match", etag)
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusNotModified {
		t.Fatalf("If-None-Match got %d, want 304", rec2.Code)
	}
	if rec2.Body.Len() != 0 {
		t.Fatal("304 carried a body")
	}
	if got := rec2.Header().Get("X-Weblint-Cache"); got != "hit" {
		t.Fatalf("304 X-Weblint-Cache = %q, want hit", got)
	}

	// A stale validator lints (or replays) normally.
	req = httptest.NewRequest("POST", "/", strings.NewReader(url.Values{"html": {brokenPage}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("If-None-Match", `"deadbeef"`)
	rec3 := httptest.NewRecorder()
	h.ServeHTTP(rec3, req)
	if rec3.Code != http.StatusOK {
		t.Fatalf("stale If-None-Match got %d, want 200", rec3.Code)
	}
}

// TestErrorsAreNeverCached: oversize documents, saturation sheds,
// over-budget lints and cancelled checks must leave no cache entry —
// an error cached once would replay as truth forever.
func TestErrorsAreNeverCached(t *testing.T) {
	t.Run("413 oversize", func(t *testing.T) {
		h := cachedHandler()
		h.MaxUpload = 16
		rec := postValues(h, url.Values{"html": {brokenPage}})
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status = %d, want 413", rec.Code)
		}
		if rec.Header().Get("X-Weblint-Cache") != "" {
			t.Error("413 carried a cache header")
		}
		if h.Cache.Len() != 0 {
			t.Error("oversize submission left a cache entry")
		}
	})

	t.Run("429 saturation", func(t *testing.T) {
		defer faultinject.Reset()
		h := cachedHandler()
		h.Limiter = serve.NewLimiter(1, 20*time.Millisecond)
		faultinject.Arm("gateway.lint", faultinject.Fault{Delay: 300 * time.Millisecond, Count: 1})

		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			postValues(h, url.Values{"html": {brokenPage}})
		}()
		for i := 0; h.Limiter.InFlight() == 0; i++ {
			if i > 1000 {
				t.Error("slot holder never acquired")
				break
			}
			time.Sleep(time.Millisecond)
		}
		// A different document, so it cannot coalesce with the holder.
		rec := postValues(h, url.Values{"html": {"<p>other doc</p>"}})
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("status = %d under saturation, want 429", rec.Code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Error("429 carries no Retry-After")
		}
		if rec.Header().Get("X-Weblint-Cache") != "" {
			t.Error("429 carried a cache header")
		}
		wg.Wait()
		if h.Cache.Len() != 1 { // only the holder's completed check
			t.Errorf("cache holds %d entries, want 1 (the completed check)", h.Cache.Len())
		}
	})

	t.Run("504 over budget", func(t *testing.T) {
		defer faultinject.Reset()
		h := cachedHandler()
		h.LintBudget = 20 * time.Millisecond
		faultinject.Arm("gateway.lint", faultinject.Fault{Delay: 10 * time.Second, Count: 1})
		rec := postValues(h, url.Values{"html": {brokenPage}})
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("status = %d, want 504", rec.Code)
		}
		if rec.Header().Get("X-Weblint-Cache") != "" {
			t.Error("504 carried a cache header")
		}
		if h.Cache.Len() != 0 {
			t.Error("over-budget check left a cache entry")
		}
		// The budget fault is gone; the same document now checks clean
		// as a miss — nothing partial was retained.
		rec = postValues(h, url.Values{"html": {brokenPage}})
		if rec.Code != http.StatusOK || rec.Header().Get("X-Weblint-Cache") != "miss" {
			t.Fatalf("post-504 check: %d %q, want 200 miss", rec.Code, rec.Header().Get("X-Weblint-Cache"))
		}
	})

	t.Run("cancelled check", func(t *testing.T) {
		defer faultinject.Reset()
		h := cachedHandler()
		faultinject.Arm("gateway.lint", faultinject.Fault{Delay: 10 * time.Second, Count: 1})

		srv := httptest.NewServer(h)
		defer srv.Close()
		client := &http.Client{Timeout: 50 * time.Millisecond}
		_, err := client.PostForm(srv.URL+"/", url.Values{"html": {brokenPage}})
		if err == nil {
			t.Fatal("expected the client timeout to cancel the request")
		}
		// Give the handler a beat to observe the cancellation.
		time.Sleep(50 * time.Millisecond)
		if h.Cache.Len() != 0 {
			t.Error("cancelled check left a cache entry")
		}
	})
}

// TestSingleflightCollapsesBurst hammers one document from 64
// goroutines through a single lint slot whose check is held slow.
// Admission control would shed most of them (maxWait 0); singleflight
// means exactly one goroutine lints and the rest share its result, so
// every response is 200 and the slot was paid for once.
func TestSingleflightCollapsesBurst(t *testing.T) {
	defer faultinject.Reset()
	h := cachedHandler()
	h.Limiter = serve.NewLimiter(1, 0)
	faultinject.Arm("gateway.lint", faultinject.Fault{Delay: 150 * time.Millisecond, Count: 1})

	const n = 64
	var wg sync.WaitGroup
	var ok, other atomic.Int64
	codes := make(chan string, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rec := postValues(h, url.Values{"html": {brokenPage}})
			if rec.Code == http.StatusOK {
				ok.Add(1)
				codes <- rec.Header().Get("X-Weblint-Cache")
			} else {
				other.Add(1)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(codes)

	if other.Load() != 0 {
		t.Fatalf("%d of %d burst requests were not served 200", other.Load(), n)
	}
	var miss, coalesced, hit int
	for c := range codes {
		switch c {
		case "miss":
			miss++
		case "coalesced":
			coalesced++
		case "hit":
			hit++
		}
	}
	if miss != 1 {
		t.Fatalf("burst produced %d misses, want exactly 1 (one lint)", miss)
	}
	if coalesced+hit != n-1 {
		t.Fatalf("miss=%d coalesced=%d hit=%d over %d requests", miss, coalesced, hit, n)
	}
	// Server-side counters reconcile exactly with client observations.
	if h.Metrics.CacheMisses.Value() != 1 ||
		h.Metrics.CacheCoalesced.Value() != int64(coalesced) ||
		h.Metrics.CacheHits.Value() != int64(hit) {
		t.Fatalf("server counters (m=%d c=%d h=%d) disagree with clients (m=1 c=%d h=%d)",
			h.Metrics.CacheMisses.Value(), h.Metrics.CacheCoalesced.Value(),
			h.Metrics.CacheHits.Value(), coalesced, hit)
	}
}

// TestCacheOffMatchesDirectPath: a handler without a Cache takes the
// same content-addressed path as a cached one and only stores nothing.
// Both answer the same report under the same ETag; cache-off never
// answers "hit" (a repeat lints again), yet If-None-Match still
// answers 304.
func TestCacheOffMatchesDirectPath(t *testing.T) {
	off := NewHandler(nil)
	cached := cachedHandler()

	d := postValues(off, url.Values{"html": {brokenPage}})
	c := postValues(cached, url.Values{"html": {brokenPage}})
	if d.Code != http.StatusOK || c.Code != http.StatusOK {
		t.Fatalf("codes: cache-off=%d cached=%d", d.Code, c.Code)
	}
	etag := d.Header().Get("ETag")
	if etag == "" || etag != c.Header().Get("ETag") {
		t.Errorf("ETag: cache-off %q, cached %q, want one content address", etag, c.Header().Get("ETag"))
	}
	if d.Body.String() != c.Body.String() {
		t.Error("cache-off and cached handlers rendered different reports")
	}
	if got := postValues(off, url.Values{"html": {brokenPage}}).Header().Get("X-Weblint-Cache"); got != "miss" {
		t.Errorf("cache-off repeat X-Weblint-Cache = %q, want miss", got)
	}

	req := httptest.NewRequest("POST", "/", strings.NewReader(url.Values{"html": {brokenPage}}.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("If-None-Match", etag)
	rec := httptest.NewRecorder()
	off.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified {
		t.Errorf("cache-off If-None-Match got %d, want 304", rec.Code)
	}
}

// TestCacheOffAnswersLikeCacheOn: every format renders by replaying one
// recorded finding stream, so a cache-off handler, a cache-on miss and
// a cache-on hit answer the same bytes.
func TestCacheOffAnswersLikeCacheOn(t *testing.T) {
	for _, format := range []string{"html", "json", "sarif", "baseline", "fixed"} {
		form := url.Values{"html": {brokenPage}, "format": {format}}
		off := postValues(NewHandler(nil), form)
		if off.Code != http.StatusOK {
			t.Fatalf("format=%s cache-off: %d", format, off.Code)
		}
		on := cachedHandler()
		for _, disp := range []string{"miss", "hit"} {
			got := postValues(on, form)
			if got.Code != http.StatusOK || got.Header().Get("X-Weblint-Cache") != disp {
				t.Errorf("format=%s cache-on: %d %q, want 200 %s", format, got.Code, got.Header().Get("X-Weblint-Cache"), disp)
				continue
			}
			if got.Header().Get("Content-Type") != off.Header().Get("Content-Type") {
				t.Errorf("format=%s cache-on %s Content-Type %q, cache-off %q",
					format, disp, got.Header().Get("Content-Type"), off.Header().Get("Content-Type"))
			}
			if got.Body.String() != off.Body.String() {
				t.Errorf("format=%s: cache-on %s body differs from cache-off\non:\n%s\noff:\n%s",
					format, disp, got.Body.String(), off.Body.String())
			}
		}
	}
}

// TestSameBytesUnderTwoNames: every finding carries the document name,
// so identical bytes uploaded as a.html and then b.html must not share
// a cache entry, an ETag or a diff base — b.html's answers must be
// exactly a fresh gateway's.
func TestSameBytesUnderTwoNames(t *testing.T) {
	h := cachedHandler()
	upload := func(to *Handler, name, format string) *httptest.ResponseRecorder {
		rec := postUpload(t, to, name, brokenPage, format)
		if rec.Code != http.StatusOK {
			t.Fatalf("upload %s format=%s: %d %s", name, format, rec.Code, rec.Body.String())
		}
		return rec
	}
	a := upload(h, "a.html", "json")
	b := upload(h, "b.html", "json")
	if got := b.Header().Get("X-Weblint-Cache"); got != "miss" {
		t.Fatalf("b.html X-Weblint-Cache = %q, want miss", got)
	}
	etag := b.Header().Get("ETag")
	if etag == a.Header().Get("ETag") {
		t.Fatal("a.html and b.html share an ETag")
	}
	for _, format := range []string{"json", "baseline"} {
		got := upload(h, "b.html", format).Body.String()
		want := upload(cachedHandler(), "b.html", format).Body.String()
		if got != want {
			t.Fatalf("format=%s for b.html after a.html:\n%s\nfresh gateway:\n%s", format, got, want)
		}
	}

	d := postValues(h, url.Values{"diff": {etag}, "edits": {"[]"}, "format": {"json"}})
	if d.Code != http.StatusOK {
		t.Fatalf("diff against b.html: %d %s", d.Code, d.Body.String())
	}
	if body := d.Body.String(); !strings.Contains(body, `"file":"b.html"`) || strings.Contains(body, "a.html") {
		t.Fatalf("diff against b.html's ETag names the wrong document:\n%s", body)
	}
}
