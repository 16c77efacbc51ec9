package serve

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func scrape(reg *Registry) string {
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

func TestCounterExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounter("weblint_requests_total", "Total requests.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if c.Value() != 3 {
		t.Fatalf("Value = %d, want 3", c.Value())
	}
	out := scrape(reg)
	for _, want := range []string{
		"# HELP weblint_requests_total Total requests.",
		"# TYPE weblint_requests_total counter",
		"weblint_requests_total 3",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterVecExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounterVec("weblint_responses_total", "Responses by code.", "code")
	c.Inc("200")
	c.Inc("200")
	c.Inc("429")
	if c.Value("200") != 2 || c.Value("429") != 1 || c.Value("504") != 0 {
		t.Fatal("Value snapshots wrong")
	}
	out := scrape(reg)
	// Sorted label order, one TYPE header for the family.
	i200 := strings.Index(out, `weblint_responses_total{code="200"} 2`)
	i429 := strings.Index(out, `weblint_responses_total{code="429"} 1`)
	if i200 < 0 || i429 < 0 || i429 < i200 {
		t.Fatalf("labelled series wrong or unsorted:\n%s", out)
	}
	if strings.Count(out, "# TYPE weblint_responses_total") != 1 {
		t.Fatalf("family TYPE header not unique:\n%s", out)
	}
}

// TestCounterVecConcurrent: concurrent increments of one label value
// all land — the gateway counts every completed check's findings by
// rule from whichever request ran it.
func TestCounterVecConcurrent(t *testing.T) {
	c := NewRegistry().NewCounterVec("weblint_findings_total", "Findings by rule.", "rule")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				c.Inc("img-alt")
			}
		}()
	}
	wg.Wait()
	if n := c.Value("img-alt"); n != 2000 {
		t.Fatalf("count = %d, want 2000", n)
	}
}

func TestGaugeFunc(t *testing.T) {
	reg := NewRegistry()
	depth := int64(0)
	reg.NewGaugeFunc("weblint_queue_depth", "Admission queue depth.", func() int64 { return depth })

	depth = 7
	out := scrape(reg)
	if !strings.Contains(out, "weblint_queue_depth 7\n") {
		t.Errorf("gauge did not read through fn:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE weblint_queue_depth gauge\n") {
		t.Errorf("gauge TYPE header missing:\n%s", out)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("weblint_lint_seconds", "Lint duration.", []float64{0.01, 0.1, 1})
	h.Observe(0.005) // le 0.01
	h.Observe(0.05)  // le 0.1
	h.Observe(0.05)  // le 0.1
	h.Observe(0.5)   // le 1
	h.Observe(5)     // +Inf only
	out := scrape(reg)
	for _, want := range []string{
		`weblint_lint_seconds_bucket{le="0.01"} 1`,
		`weblint_lint_seconds_bucket{le="0.1"} 3`,
		`weblint_lint_seconds_bucket{le="1"} 4`,
		`weblint_lint_seconds_bucket{le="+Inf"} 5`,
		`weblint_lint_seconds_count 5`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("histogram missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "weblint_lint_seconds_sum 5.605") {
		t.Errorf("histogram sum wrong:\n%s", out)
	}
	// An observation exactly on a bound lands in that bound's bucket
	// (le is inclusive).
	h2 := reg.NewHistogram("weblint_exact_seconds", "x", []float64{0.1})
	h2.Observe(0.1)
	if !strings.Contains(scrape(reg), `weblint_exact_seconds_bucket{le="0.1"} 1`) {
		t.Error("observation on the bound fell into the wrong bucket")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	reg := NewRegistry()
	h := reg.NewHistogram("weblint_t_seconds", "x", []float64{0.5})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d, want 8000", h.Count())
	}
	out := scrape(reg)
	if !strings.Contains(out, "weblint_t_seconds_sum 2000\n") {
		t.Errorf("concurrent sum drifted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	c := reg.NewCounterVec("weblint_odd_total", "x", "v")
	c.Inc("a\"b\\c\nd")
	out := scrape(reg)
	if !strings.Contains(out, `weblint_odd_total{v="a\"b\\c\nd"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
}

func TestContentTypeCarriesFormatVersion(t *testing.T) {
	rec := httptest.NewRecorder()
	NewRegistry().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q, want the 0.0.4 exposition marker", ct)
	}
}
