package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"weblint/internal/faultinject"
	"weblint/internal/serve"
)

// TestMetricsEndToEnd drives the assembled stack — Mux, counting
// middleware, cached submit path — and scrapes /metrics, asserting
// the exposition carries the gateway families and that outcome and
// cache counters reflect the traffic exactly.
func TestMetricsEndToEnd(t *testing.T) {
	h := cachedHandler()
	h.Limiter = serve.NewLimiter(2, time.Second)
	h.Metrics.ObserveState(h.Limiter, h.Cache)
	srv := httptest.NewServer(h.Mux(&serve.Health{}, nil))
	defer srv.Close()

	post := func(form url.Values) *http.Response {
		resp, err := http.PostForm(srv.URL+"/", form)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}
	post(url.Values{"html": {brokenPage}})                      // miss
	post(url.Values{"html": {brokenPage}})                      // hit
	post(url.Values{"html": {brokenPage}, "format": {"json"}})  // hit
	post(url.Values{"html": {"<p>hi</p>"}, "format": {"nope"}}) // 400

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("scrape Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	out := string(body)

	for _, want := range []string{
		"weblint_gateway_requests_total 4",
		`weblint_gateway_responses_total{code="200"} 3`,
		`weblint_gateway_responses_total{code="400"} 1`,
		"weblint_gateway_cache_misses_total 1",
		"weblint_gateway_cache_hits_total 2",
		"weblint_gateway_cache_coalesced_total 0",
		"weblint_gateway_cache_entries 1",
		"weblint_gateway_slots 2",
		"weblint_gateway_queue_depth 0",
		"weblint_gateway_lint_seconds_count 1",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("scrape missing %q", want)
		}
	}
	// One lint ran; its findings are tallied per rule.
	if !strings.Contains(out, `weblint_gateway_findings_total{rule="heading-mismatch"} 1`) {
		t.Errorf("per-rule findings missing from scrape:\n%s", out)
	}
	// Every line parses as a comment or a sample.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("unparseable sample line %q", line)
		}
	}
}

// TestMetricsCountPanicOutcome: the counting middleware sits outside
// panic recovery, so a contained panic's 500 shows up in the outcome
// counters, and the crashed check counts no findings.
func TestMetricsCountPanicOutcome(t *testing.T) {
	defer faultinject.Reset()
	h := cachedHandler()
	mux := h.Mux(nil, func(any) {})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	// An unknown format answers 400 through the full stack.
	resp, err := http.PostForm(srv.URL+"/", url.Values{"html": {"x"}, "format": {"bogus"}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Metrics.Responses.Value("400") != 1 {
		t.Fatalf("400 count = %d, want 1", h.Metrics.Responses.Value("400"))
	}

	faultinject.Arm("gateway.lint", faultinject.Fault{Panic: "check exploded", Count: 1})
	resp, err = http.PostForm(srv.URL+"/", url.Values{"html": {brokenPage}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := h.Metrics.Responses.Value("500"); got != 1 {
		t.Fatalf("500 count = %d, want 1", got)
	}
	if got := h.Metrics.Findings.Value("heading-mismatch"); got != 0 {
		t.Fatalf("the crashed check counted %d findings", got)
	}
}

func TestObserveStateNilArguments(t *testing.T) {
	m := NewMetrics()
	m.ObserveState(nil, nil) // must not panic or register nil readers
	rec := httptest.NewRecorder()
	m.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rec.Body.String(), "weblint_gateway_slots") {
		t.Error("nil limiter registered a slots gauge")
	}
}

// TestDirectPathMetrics: metrics work without a cache too. Nothing is
// stored, so every submission — a repeat included — lints and ships
// X-Weblint-Cache: miss, and the counters, durations and rule tallies
// say exactly that.
func TestDirectPathMetrics(t *testing.T) {
	h := NewHandler(nil)
	h.Metrics = NewMetrics()
	srv := httptest.NewServer(h.Mux(nil, nil))
	defer srv.Close()

	for i := 0; i < 2; i++ {
		resp, err := http.PostForm(srv.URL+"/", url.Values{"html": {brokenPage}})
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Weblint-Cache"); got != "miss" {
			t.Fatalf("submission %d X-Weblint-Cache = %q, want miss", i, got)
		}
	}

	if h.Metrics.LintDuration.Count() != 2 {
		t.Fatalf("lint duration observations = %d, want 2", h.Metrics.LintDuration.Count())
	}
	if h.Metrics.Responses.Value("200") != 2 {
		t.Fatalf("200 count = %d, want 2", h.Metrics.Responses.Value("200"))
	}
	if m, hits := h.Metrics.CacheMisses.Value(), h.Metrics.CacheHits.Value(); m != 2 || hits != 0 {
		t.Fatalf("cache counters: misses=%d hits=%d, want 2/0", m, hits)
	}
	// Each check of brokenPage fires heading-mismatch and doctype-first
	// once and suppresses two require-meta emissions (a rule off by
	// default).
	for _, c := range []struct {
		family string
		vec    *serve.CounterVec
		rule   string
		want   int64
	}{
		{"findings", h.Metrics.Findings, "heading-mismatch", 2},
		{"findings", h.Metrics.Findings, "doctype-first", 2},
		{"findings", h.Metrics.Findings, "require-meta", 0},
		{"suppressed", h.Metrics.Suppressed, "require-meta", 4},
		{"suppressed", h.Metrics.Suppressed, "heading-mismatch", 0},
	} {
		if got := c.vec.Value(c.rule); got != c.want {
			t.Errorf("%s{rule=%q} = %d, want %d", c.family, c.rule, got, c.want)
		}
	}
}

// TestCountResponsesUnwritten: a request whose handler writes nothing
// (the client gave up while queued) is counted as 499.
func TestCountResponsesUnwritten(t *testing.T) {
	m := NewMetrics()
	h := m.CountResponses(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/", nil))
	if m.Requests.Value() != 1 || m.Responses.Value("499") != 1 {
		t.Fatalf("requests = %d, 499s = %d, want 1 and 1", m.Requests.Value(), m.Responses.Value("499"))
	}
}
