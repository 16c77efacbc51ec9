// Robotlint: embedding weblint in a robot, the paper's Section 5.3
// ("the Weblint module from weblint 2 makes it easier to embed weblint
// functionality in a robot, such as a link checker") and the paper's
// poacher.
//
// The example serves a small synthetic site (with planted defects and
// a robots.txt exclusion) on a local test server, crawls it, lints
// every page, and reports the links that led nowhere — all in one
// process, so it is runnable without a network. The robot needs no
// client of its own: its hardened fetch client, which identifies
// itself as poacher, reaches the plain-HTTP loopback server.
package main

import (
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"weblint/internal/corpus"
	"weblint/internal/lint"
	"weblint/internal/robot"
	"weblint/internal/warn"
)

func main() {
	pages := corpus.GenerateSite(corpus.SiteConfig{
		Seed: 7, Pages: 10, BrokenLinks: 2, Subdirs: 2,
		Errors: corpus.ErrorRates{Misspell: 0.2, Overlap: 0.2},
	})

	mux := http.NewServeMux()
	mux.HandleFunc("/robots.txt", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "User-agent: *\nDisallow: /sub1/\n")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		path := strings.TrimPrefix(r.URL.Path, "/")
		if path == "" {
			path = "index.html"
		}
		body, ok := pages[path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, body)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	linter := lint.MustNew(lint.Options{})
	r := robot.NewRobot()

	stats := robot.NewCrawlStats()
	problemPages := 0
	broken := 0

	fetched, err := r.Crawl(srv.URL+"/", func(p robot.Page) {
		stats.Record(p)
		if p.Err != nil || p.Status != http.StatusOK {
			broken++
			fmt.Printf("broken link target: %s (HTTP %d)\n", p.URL, p.Status)
			return
		}
		if !p.IsHTML() {
			return // an image or a stylesheet: nothing to lint
		}
		msgs := linter.CheckString(p.URL, p.Body)
		if len(msgs) > 0 {
			problemPages++
			fmt.Printf("%s: %d problems, first: %s\n",
				p.URL, len(msgs), warn.Short{}.Format(msgs[0]))
		}
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\ncrawl finished: %d fetches, %d pages with problems, %d broken links\n",
		fetched, problemPages, broken)
	fmt.Print(stats.Summary())
	fmt.Println("(note: /sub1/ pages were excluded by robots.txt)")
}
