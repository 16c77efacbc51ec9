package robot

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
)

// TestCrawlWhileCancellation: returning false from the visitor stops
// the crawl promptly — pages queued behind the cancellation are never
// fetched, even with a deep prefetch pipeline.
func TestCrawlWhileCancellation(t *testing.T) {
	var served atomic.Int32
	var srvURL string
	mux := http.NewServeMux()
	// No robots.txt: the policy permits everything, and its fetch is
	// not counted as a page.
	mux.HandleFunc("/robots.txt", http.NotFound)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", "text/html")
		// A long chain: each page links to the next.
		fmt.Fprintf(w, `<HTML><BODY><A HREF="%s/p%d">next</A></BODY></HTML>`, srvURL, served.Load())
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	srvURL = srv.URL

	r := NewRobot()
	r.Prefetch = 4
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
	// The prefetch window may have a few fetches in flight past the
	// cancellation, but nothing beyond it may be dispatched.
	if n := served.Load(); n > int32(3+r.Prefetch) {
		t.Errorf("%d pages fetched after the visitor cancelled", n)
	}
}
