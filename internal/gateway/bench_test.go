package gateway

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"testing"
	"time"

	"weblint/internal/corpus"
	"weblint/internal/resultcache"
	"weblint/internal/serve"
)

// discardWriter is a reusable http.ResponseWriter that keeps the
// headers and status and drops the body, so a benchmark times the
// handler rather than a recorder's buffer growth.
type discardWriter struct {
	header http.Header
	code   int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *discardWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(p), nil
}

// BenchmarkGatewayHit times one cache hit through the production
// stack, wired as gateway-mix wires it (result cache, a
// Limiter(2×GOMAXPROCS, 2s), metrics, Mux): a corpus page at error
// rate 0.05, posted as an urlencoded form the way the gateway's
// visitors and gateway-mix post it, answered as an HTML report, JSON
// Lines or SARIF.
func BenchmarkGatewayHit(b *testing.B) {
	for _, size := range []int{16 << 10, 64 << 10} {
		page := url.QueryEscape(corpus.GenerateSized(1, size, corpus.Uniform(0.05)))
		for _, format := range []string{"html", "json", "sarif"} {
			b.Run(fmt.Sprintf("%s/%dKiB", format, size>>10), func(b *testing.B) {
				h := NewHandler(nil)
				h.Limiter = serve.NewLimiter(2*runtime.GOMAXPROCS(0), 2*time.Second)
				h.Cache = resultcache.New(resultcache.DefaultMaxBytes)
				h.Metrics = NewMetrics()
				h.Metrics.ObserveState(h.Limiter, h.Cache)
				mux := h.Mux(&serve.Health{}, func(any) {})

				form := "format=" + format + "&html=" + page
				body := strings.NewReader(form)
				tmpl := httptest.NewRequest(http.MethodPost, "/", nil)
				tmpl.Header.Set("Content-Type", "application/x-www-form-urlencoded")
				w := &discardWriter{header: http.Header{}}
				post := func() {
					body.Reset(form)
					r := *tmpl
					r.Body, r.ContentLength = readCloser{body}, int64(len(form))
					clear(w.header)
					w.code = 0
					mux.ServeHTTP(w, &r)
				}
				post() // the miss that fills the cache
				if w.code != http.StatusOK {
					b.Fatalf("warm-up: status %d", w.code)
				}
				b.SetBytes(int64(size))
				for b.Loop() {
					post()
					if w.code != http.StatusOK || w.header.Get("X-Weblint-Cache") != "hit" {
						b.Fatalf("status %d, X-Weblint-Cache %q, want a 200 hit", w.code, w.header.Get("X-Weblint-Cache"))
					}
				}
			})
		}
	}
}

// readCloser gives a reused strings.Reader the Close a request body
// needs; holding one pointer, it converts to io.ReadCloser without an
// allocation.
type readCloser struct{ *strings.Reader }

func (readCloser) Close() error { return nil }
