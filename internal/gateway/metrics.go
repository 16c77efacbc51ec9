package gateway

import (
	"net/http"
	"strconv"

	"weblint/internal/resultcache"
	"weblint/internal/serve"
	"weblint/internal/warn"
)

// Metrics is the gateway's Prometheus surface: request and outcome
// counters, cache traffic, admission-wait and lint-duration
// histograms, and per-rule finding and suppression counts. Construct
// with NewMetrics, assign to Handler.Metrics, and Mux serves the
// scrape endpoint at /metrics.
//
// The per-rule counts cover completed checks: a check the lint budget
// or a client hang-up cut short counts nothing, just as its partial
// stream is neither cached nor rendered. A cache hit lints nothing and
// counts nothing, and concurrent identical submissions count once,
// for the one check their singleflight leader ran.
//
// The cache counters have a reconciliation contract: they increment
// exactly when a response carrying the X-Weblint-Cache header is
// produced, so hits + misses + coalesced equals the number of such
// responses clients saw — the siege load generator asserts this
// end to end.
type Metrics struct {
	reg *serve.Registry

	// Requests counts every request reaching the gateway handler.
	Requests *serve.Counter
	// Responses counts completed responses by HTTP status code.
	Responses *serve.CounterVec
	// CacheHits, CacheMisses and CacheCoalesced count lint responses
	// by cache disposition.
	CacheHits      *serve.Counter
	CacheMisses    *serve.Counter
	CacheCoalesced *serve.Counter
	// AdmissionWait observes time spent waiting for a lint slot,
	// in seconds — shed and admitted requests both.
	AdmissionWait *serve.Histogram
	// LintDuration observes each executed check, in seconds. Cache
	// hits do not lint and are not observed here.
	LintDuration *serve.Histogram
	// Findings counts the findings of completed checks, by rule.
	Findings *serve.CounterVec
	// Suppressed counts the emissions in-document directives
	// suppressed in completed checks, by rule.
	Suppressed *serve.CounterVec
}

// NewMetrics builds the gateway metric set on a fresh registry.
func NewMetrics() *Metrics {
	reg := serve.NewRegistry()
	m := &Metrics{
		reg:      reg,
		Requests: reg.NewCounter("weblint_gateway_requests_total", "Requests reaching the gateway handler."),
		Responses: reg.NewCounterVec("weblint_gateway_responses_total",
			"Completed responses by HTTP status code.", "code"),
		CacheHits:      reg.NewCounter("weblint_gateway_cache_hits_total", "Lint responses served from the result cache."),
		CacheMisses:    reg.NewCounter("weblint_gateway_cache_misses_total", "Lint responses that ran a fresh check."),
		CacheCoalesced: reg.NewCounter("weblint_gateway_cache_coalesced_total", "Lint responses that shared a concurrent identical check."),
		AdmissionWait: reg.NewHistogram("weblint_gateway_admission_wait_seconds",
			"Time waiting for a lint slot.",
			[]float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}),
		LintDuration: reg.NewHistogram("weblint_gateway_lint_seconds",
			"Duration of executed checks (cache hits excluded).",
			[]float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}),
		Findings: reg.NewCounterVec("weblint_gateway_findings_total",
			"Findings emitted, by rule.", "rule"),
		Suppressed: reg.NewCounterVec("weblint_gateway_suppressed_total",
			"Findings suppressed by in-document directives, by rule.", "rule"),
	}
	return m
}

// countFindings counts a completed check's finding stream by rule.
func (m *Metrics) countFindings(rec *warn.Recorder) {
	for i := range rec.Messages {
		m.Findings.Inc(rec.Messages[i].ID)
	}
	for _, id := range rec.SuppressedIDs {
		m.Suppressed.Inc(id)
	}
}

// ObserveState registers scrape-time gauges over live serving state:
// admission-queue depth, slots in flight and configured, cache entries
// and bytes. Either argument may be nil.
func (m *Metrics) ObserveState(lim *serve.Limiter, cache *resultcache.Cache[*warn.Recorder]) {
	if lim != nil {
		m.reg.NewGaugeFunc("weblint_gateway_queue_depth",
			"Requests waiting for a lint slot.", func() int64 { return int64(lim.Waiting()) })
		m.reg.NewGaugeFunc("weblint_gateway_inflight",
			"Lints currently holding a slot.", func() int64 { return int64(lim.InFlight()) })
		m.reg.NewGaugeFunc("weblint_gateway_slots",
			"Configured lint slots.", func() int64 { return int64(lim.Slots()) })
	}
	if cache != nil {
		m.reg.NewGaugeFunc("weblint_gateway_cache_entries",
			"Entries resident in the result cache.", func() int64 { return int64(cache.Len()) })
		m.reg.NewGaugeFunc("weblint_gateway_cache_bytes",
			"Approximate bytes held by the result cache.", func() int64 { return int64(cache.Bytes()) })
	}
}

// Handler returns the /metrics scrape handler.
func (m *Metrics) Handler() http.Handler { return m.reg }

// CountResponses wraps next, counting each request and its response
// status. It sits outside the panic-recovery layer in Mux and hands it
// the serve.StatusWriter it records the status in, so a request is
// wrapped once and a contained panic's 500 is counted like any other
// outcome.
func (m *Metrics) CountResponses(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m.Requests.Inc()
		sw := &serve.StatusWriter{ResponseWriter: w}
		next.ServeHTTP(sw, r)
		m.Responses.Inc(codeLabel(sw.Code))
	})
}

func codeLabel(code int) string {
	if code == 0 {
		// The handler never wrote: the client gave up while queued and
		// nothing went on the wire. 499 is the conventional label for
		// client-closed requests.
		return "499"
	}
	return strconv.Itoa(code)
}
