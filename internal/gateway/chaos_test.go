package gateway

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weblint/internal/faultinject"
	"weblint/internal/fetch"
	"weblint/internal/serve"
)

// The chaos suite drives the assembled gateway stack through injected
// faults — slow lints, lint panics, fetch failures — and asserts the
// operator-facing promises hold: saturation sheds load with 429 +
// Retry-After and recovers, a panicking check costs exactly its own
// request, and a blown budget answers 504 promptly. Faults are armed
// process-globally, so these tests do not run in parallel.

// TestSaturationShedsAndRecovers: with one lint slot held busy by an
// injected slow lint, a submission of a different document (the same
// one would coalesce with the holder) waits out the admission queue
// and is shed with 429 + Retry-After; once the slot frees, the gateway
// serves normally again.
func TestSaturationShedsAndRecovers(t *testing.T) {
	defer faultinject.Reset()

	h := NewHandler(nil)
	h.Limiter = serve.NewLimiter(1, 30*time.Millisecond)

	// The slot holder lints under an injected 400ms delay.
	faultinject.Arm("gateway.lint", faultinject.Fault{Delay: 400 * time.Millisecond, Count: 1})
	var wg sync.WaitGroup
	wg.Add(1)
	var holderCode atomic.Int64
	go func() {
		defer wg.Done()
		rec := postValues(h, url.Values{"html": {brokenPage}})
		holderCode.Store(int64(rec.Code))
	}()

	// Wait until the holder owns the slot before submitting.
	for i := 0; h.Limiter.InFlight() == 0; i++ {
		if i > 1000 {
			t.Fatal("slot holder never acquired")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	rec := postValues(h, url.Values{"html": {"<p>other doc</p>"}})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d under saturation, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 carries no Retry-After header")
	}
	if waited := time.Since(start); waited > 300*time.Millisecond {
		t.Errorf("shed took %v; the admission wait is 30ms", waited)
	}

	wg.Wait()
	if c := holderCode.Load(); c != http.StatusOK {
		t.Fatalf("slot holder's own request got %d", c)
	}
	// The slot is free and the fault self-disarmed: service recovers.
	rec = postValues(h, url.Values{"html": {brokenPage}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d after saturation cleared, want 200", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "malformed heading") {
		t.Error("post-recovery report missing findings")
	}
}

// TestPanicContainment: an injected lint panic costs exactly the
// request that hit it — it answers 500, the next submission is served
// normally, and the health probe stays green throughout.
func TestPanicContainment(t *testing.T) {
	defer faultinject.Reset()

	h := NewHandler(nil)
	health := &serve.Health{}
	var panicked atomic.Int64
	mux := h.Mux(health, func(v any) { panicked.Add(1) })
	srv := httptest.NewServer(mux)
	defer srv.Close()

	post := func() *http.Response {
		resp, err := http.PostForm(srv.URL+"/", url.Values{"html": {brokenPage}})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	faultinject.Arm("gateway.lint", faultinject.Fault{Panic: "check exploded", Count: 1})
	resp := post()
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request got %d, want 500", resp.StatusCode)
	}
	if panicked.Load() != 1 {
		t.Fatalf("onPanic observed %d panics, want 1", panicked.Load())
	}

	// The process kept serving: the very next submission succeeds.
	resp = post()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after the panic got %d, want 200", resp.StatusCode)
	}

	hz, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d after a contained panic, want 200", hz.StatusCode)
	}
}

// TestPanickedFlightRetires: a check that panics as a singleflight
// leader must retire its flight. Its own request answers 500, and the
// next submission of the same document lints afresh well inside the
// budget instead of waiting on the dead flight until 504.
func TestPanickedFlightRetires(t *testing.T) {
	defer faultinject.Reset()

	h := cachedHandler()
	h.LintBudget = 2 * time.Second
	srv := httptest.NewServer(h.Mux(nil, func(any) {}))
	defer srv.Close()

	faultinject.Arm("gateway.lint", faultinject.Fault{Panic: "check exploded", Count: 1})
	resp, err := http.PostForm(srv.URL+"/", url.Values{"html": {brokenPage}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request got %d, want 500", resp.StatusCode)
	}

	start := time.Now()
	resp, err = http.PostForm(srv.URL+"/", url.Values{"html": {brokenPage}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resubmission after the panic got %d, want 200", resp.StatusCode)
	}
	if took := time.Since(start); took > h.LintBudget/2 {
		t.Fatalf("resubmission took %v against a %v budget", took, h.LintBudget)
	}
}

// TestInjectedFetchFailure: a transport fault inside the hardened
// fetch client surfaces as a clear per-request error, not a hang or a
// process-level failure.
func TestInjectedFetchFailure(t *testing.T) {
	defer faultinject.Reset()

	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, brokenPage)
	}))
	defer origin.Close()

	h := NewHandler(nil)
	h.Fetcher = fetch.New(fetch.Options{AllowPrivate: true, MaxBody: h.maxUpload()})

	faultinject.Arm("fetch.get", faultinject.Fault{Err: errors.New("connection reset by chaos"), Count: 1})
	rec := postValues(h, url.Values{"url": {origin.URL + "/page.html"}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d for a failed fetch, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "connection reset by chaos") {
		t.Errorf("fetch failure not reported to the user: %s", rec.Body.String())
	}

	// Fault self-disarmed: the same submission now succeeds.
	rec = postValues(h, url.Values{"url": {origin.URL + "/page.html"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d after the fault cleared, want 200", rec.Code)
	}
}

// TestLintBudget504IsPrompt: a submission whose lint is stuck behind
// an injected multi-second stall answers 504 as soon as the budget
// expires — the deadline cuts through, it does not wait out the stall.
func TestLintBudget504IsPrompt(t *testing.T) {
	defer faultinject.Reset()

	h := NewHandler(nil)
	h.LintBudget = 20 * time.Millisecond
	faultinject.Arm("gateway.lint", faultinject.Fault{Delay: 10 * time.Second, Count: 1})

	start := time.Now()
	rec := postValues(h, url.Values{"html": {brokenPage}})
	elapsed := time.Since(start)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("504 took %v against a 20ms budget", elapsed)
	}
	if !strings.Contains(rec.Body.String(), "budget") {
		t.Errorf("504 body does not explain the budget: %s", rec.Body.String())
	}
}

// TestBufferedFormatsNeverShipPartialResults: when the budget cuts a
// check whose response is buffered until completion — SARIF, baseline,
// fixed — the gateway answers 504 rather than a plausible-looking but
// partial document (a partial baseline would "pay down" findings that
// were never checked; a partial fix would hand back a half-repaired
// page presented as the fixed one).
func TestBufferedFormatsNeverShipPartialResults(t *testing.T) {
	h := NewHandler(nil)
	h.LintBudget = time.Nanosecond // expired before the check starts

	for _, format := range []string{"sarif", "baseline", "fixed"} {
		rec := postValues(h, url.Values{"html": {brokenPage}, "format": {format}})
		if rec.Code != http.StatusGatewayTimeout {
			t.Errorf("format=%s over budget got %d, want 504", format, rec.Code)
		}
		if strings.Contains(rec.Body.String(), "\"version\"") ||
			strings.Contains(rec.Body.String(), "<HTML>") {
			t.Errorf("format=%s over budget shipped a document body", format)
		}
	}
}
