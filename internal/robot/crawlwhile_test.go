package robot

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// TestCrawlWhileCancellation: returning false from the visitor stops
// the crawl promptly. On a chain, where each level holds one page and
// nothing is prefetched, nothing queued behind the cancellation is
// fetched. On a wide site the fetch workers run ahead of the visitor:
// a window of Prefetch fetches may be in flight past the cancellation,
// and one more racing past the window, but nothing beyond.
func TestCrawlWhileCancellation(t *testing.T) {
	const prefetch = 4
	cases := []struct {
		name      string
		body      func(srvURL, path string, served int32) string
		maxServed int32
	}{
		// A long chain: each page links to the next.
		{"chain", func(srvURL, _ string, served int32) string {
			return fmt.Sprintf(`<A HREF="%s/p%d">next</A>`, srvURL, served)
		}, 3 + prefetch},
		// One index linking 50 leaves: a level of 50 pages.
		{"wide", func(_, path string, _ int32) string {
			if path != "/" {
				return "leaf"
			}
			var b strings.Builder
			for i := 0; i < 50; i++ {
				fmt.Fprintf(&b, `<A HREF="/p%d.html">p</A>`, i)
			}
			return b.String()
		}, 3 + prefetch + 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var served atomic.Int32
			var srvURL string
			mux := http.NewServeMux()
			// No robots.txt: the policy permits everything, and its fetch
			// is not counted as a page.
			mux.HandleFunc("/robots.txt", http.NotFound)
			mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
				n := served.Add(1)
				w.Header().Set("Content-Type", "text/html")
				fmt.Fprintf(w, `<HTML><BODY>%s</BODY></HTML>`, tc.body(srvURL, r.URL.Path, n))
			})
			srv := httptest.NewServer(mux)
			defer srv.Close()
			srvURL = srv.URL

			r := NewRobot()
			r.Prefetch = prefetch
			visited := 0
			fetched, err := r.CrawlWhile(srv.URL+"/", func(p Page) bool {
				visited++
				return visited < 3
			})
			if err != nil {
				t.Fatal(err)
			}
			if visited != 3 {
				t.Errorf("visited %d pages after cancelling at 3", visited)
			}
			if fetched != 3 {
				t.Errorf("fetched = %d, want 3 (delivery stops at the cancellation)", fetched)
			}
			if n := served.Load(); n > tc.maxServed {
				t.Errorf("%d pages served after the visitor cancelled at 3, want at most %d", n, tc.maxServed)
			}
		})
	}
}
