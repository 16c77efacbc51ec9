package robot

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"weblint/internal/corpus"
	"weblint/internal/fetch"
)

func TestParseRobotsTxtBasic(t *testing.T) {
	p := ParseRobotsTxt(`
User-agent: *
Disallow: /private/
Disallow: /tmp/
`, "poacher/2.0")
	if p.Allowed("/private/x.html") || p.Allowed("/tmp/y") {
		t.Error("disallowed paths allowed")
	}
	if !p.Allowed("/public/x.html") || !p.Allowed("/") {
		t.Error("allowed paths disallowed")
	}
}

func TestParseRobotsTxtAgentSpecific(t *testing.T) {
	body := `
User-agent: poacher
Disallow: /poacher-only/

User-agent: *
Disallow: /everyone/
`
	p := ParseRobotsTxt(body, "poacher/2.0")
	if p.Allowed("/poacher-only/x") {
		t.Error("agent-specific rule ignored")
	}
	if !p.Allowed("/everyone/x") {
		t.Error("star group applied despite specific match")
	}
	q := ParseRobotsTxt(body, "otherbot/1.0")
	if q.Allowed("/everyone/x") {
		t.Error("star group not applied to other agent")
	}
	if !q.Allowed("/poacher-only/x") {
		t.Error("foreign agent rules applied")
	}
}

func TestParseRobotsTxtAllowOverride(t *testing.T) {
	p := ParseRobotsTxt(`
User-agent: *
Allow: /private/ok/
Disallow: /private/
`, "bot")
	if !p.Allowed("/private/ok/page") {
		t.Error("Allow rule ignored")
	}
	if p.Allowed("/private/no") {
		t.Error("Disallow after Allow ignored")
	}
}

func TestParseRobotsTxtEmptyDisallow(t *testing.T) {
	p := ParseRobotsTxt("User-agent: *\nDisallow:\n", "bot")
	if !p.Allowed("/anything") {
		t.Error("empty Disallow should allow everything")
	}
}

func TestParseRobotsTxtCommentsAndJunk(t *testing.T) {
	p := ParseRobotsTxt(`
# header comment
User-agent: * # star
Disallow: /x # no robots here
not-a-field-line
`, "bot")
	if p.Allowed("/x/page") {
		t.Error("commented rules not parsed")
	}
}

func TestNilPolicyAllows(t *testing.T) {
	var p *RobotsPolicy
	if !p.Allowed("/x") {
		t.Error("nil policy should allow")
	}
}

// siteServer serves a small generated site over httptest, with a
// robots.txt, some broken links, and a non-HTML resource.
func siteServer(t *testing.T, pages map[string]string, robotsTxt string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	if robotsTxt != "" {
		mux.HandleFunc("/robots.txt", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, robotsTxt)
		})
	}
	mux.HandleFunc("/data.bin", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write([]byte{1, 2, 3})
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
	return httptest.NewServer(mux)
}

// TestE9RobotCrawl is experiment E9: poacher traverses all accessible
// pages, delivering every fetch (including broken-link 404s) to the
// visitor.
func TestE9RobotCrawl(t *testing.T) {
	pages := corpus.GenerateSite(corpus.SiteConfig{
		Seed: 9, Pages: 12, Orphans: 0, BrokenLinks: 2, Subdirs: 2,
	})
	srv := siteServer(t, pages, "")
	defer srv.Close()

	r := NewRobot()
	stats := NewCrawlStats()
	notFound := 0
	fetched, err := r.Crawl(srv.URL+"/", func(p Page) {
		stats.Record(p)
		if p.Status == http.StatusNotFound {
			notFound++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// All 12 pages plus 2 broken targets.
	if fetched != 14 {
		t.Errorf("fetched = %d, want 14", fetched)
	}
	if notFound != 2 {
		t.Errorf("404s seen = %d, want 2", notFound)
	}
	if stats.Statuses[200] != 12 {
		t.Errorf("200s = %d, want 12", stats.Statuses[200])
	}
	sum := stats.Summary()
	if !strings.Contains(sum, "pages fetched: 14") || !strings.Contains(sum, "status 404: 2") {
		t.Errorf("summary = %q", sum)
	}
}

func TestRobotHonorsRobotsTxt(t *testing.T) {
	pages := map[string]string{
		"index.html":          `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><A HREF="/private/secret.html">s</A><A HREF="/open.html">o</A></BODY></HTML>`,
		"open.html":           `<HTML><HEAD><TITLE>o</TITLE></HEAD><BODY>open</BODY></HTML>`,
		"private/secret.html": `<HTML><HEAD><TITLE>s</TITLE></HEAD><BODY>secret</BODY></HTML>`,
	}
	srv := siteServer(t, pages, "User-agent: *\nDisallow: /private/\n")
	defer srv.Close()

	r := NewRobot()
	var visited []string
	_, err := r.Crawl(srv.URL+"/", func(p Page) { visited = append(visited, p.URL) })
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range visited {
		if strings.Contains(u, "/private/") {
			t.Errorf("robots.txt violated: fetched %s", u)
		}
	}
	if len(visited) != 2 {
		t.Errorf("visited = %v", visited)
	}
}

func TestRobotMaxPages(t *testing.T) {
	pages := corpus.GenerateSite(corpus.SiteConfig{Seed: 1, Pages: 20, Subdirs: 1})
	srv := siteServer(t, pages, "")
	defer srv.Close()

	r := NewRobot()
	r.MaxPages = 5
	fetched, err := r.Crawl(srv.URL+"/", func(Page) {})
	if err != nil {
		t.Fatal(err)
	}
	if fetched != 5 {
		t.Errorf("fetched = %d, want 5", fetched)
	}
}

func TestRobotMaxDepth(t *testing.T) {
	// A linear chain: depth limit cuts traversal.
	pages := map[string]string{}
	for i := 0; i < 10; i++ {
		pages[fmt.Sprintf("p%d.html", i)] =
			fmt.Sprintf(`<HTML><HEAD><TITLE>p</TITLE></HEAD><BODY><A HREF="/p%d.html">next</A></BODY></HTML>`, i+1)
	}
	pages["index.html"] = `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><A HREF="/p0.html">start</A></BODY></HTML>`
	srv := siteServer(t, pages, "")
	defer srv.Close()

	r := NewRobot()
	r.MaxDepth = 3
	fetched, err := r.Crawl(srv.URL+"/", func(Page) {})
	if err != nil {
		t.Fatal(err)
	}
	// index (0) -> p0 (1) -> p1 (2) -> p2 (3); links from depth 3
	// are not followed.
	if fetched != 4 {
		t.Errorf("fetched = %d, want 4", fetched)
	}
}

func TestRobotStaysOnHost(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><A HREF="http://other.example/x.html">off-site</A></BODY></HTML>`,
	}
	srv := siteServer(t, pages, "")
	defer srv.Close()

	r := NewRobot()
	fetched, err := r.Crawl(srv.URL+"/", func(Page) {})
	if err != nil {
		t.Fatal(err)
	}
	if fetched != 1 {
		t.Errorf("fetched = %d, want 1 (no off-site traversal)", fetched)
	}
}

func TestRobotSkipsNonHTML(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><A HREF="/data.bin">blob</A></BODY></HTML>`,
	}
	srv := siteServer(t, pages, "")
	defer srv.Close()

	r := NewRobot()
	var blob *Page
	_, err := r.Crawl(srv.URL+"/", func(p Page) {
		if strings.HasSuffix(p.URL, "data.bin") {
			cp := p
			blob = &cp
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if blob == nil {
		t.Fatal("binary resource not fetched")
	}
	if blob.Body != "" || len(blob.Links) != 0 {
		t.Error("non-HTML body parsed as HTML")
	}
}

// TestRobotRefusesOversizePage: a page at the fetch client's body cap
// is read in full, links in its tail included; one byte more fails
// with fetch.ErrBodyTooLarge instead of delivering a truncated page.
func TestRobotRefusesOversizePage(t *testing.T) {
	const tail = `<A HREF="/tail.html">tail</A></BODY></HTML>`
	maxPageBytes := int(client().MaxBody())
	for _, size := range []int{maxPageBytes, maxPageBytes + 1} {
		pages := map[string]string{
			"index.html": "<HTML><BODY>" + strings.Repeat("a", size-len("<HTML><BODY>")-len(tail)) + tail,
			"tail.html":  "<HTML><BODY>tail</BODY></HTML>",
		}
		srv := siteServer(t, pages, "")
		r := NewRobot()
		var got []Page
		_, err := r.Crawl(srv.URL+"/", func(p Page) { got = append(got, p) })
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		index := got[0]
		if size <= maxPageBytes {
			if index.Err != nil || len(index.Body) != size || len(got) != 2 {
				t.Errorf("%d-byte page: err %v, body %d bytes, %d pages fetched; want it read in full and its tail link followed",
					size, index.Err, len(index.Body), len(got))
			}
			continue
		}
		if !errors.Is(index.Err, fetch.ErrBodyTooLarge) {
			t.Errorf("%d-byte page: err = %v, want fetch.ErrBodyTooLarge", size, index.Err)
		}
		if index.Body != "" || len(index.Links) != 0 || len(got) != 1 {
			t.Errorf("%d-byte page delivered %d body bytes and %d links, %d pages fetched", size, len(index.Body), len(index.Links), len(got))
		}
	}
}

func TestRobotDedupliatesURLs(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY>` +
			`<A HREF="/a.html">1</A><A HREF="/a.html#frag">2</A><A HREF="/a.html">3</A></BODY></HTML>`,
		"a.html": `<HTML><HEAD><TITLE>a</TITLE></HEAD><BODY>leaf</BODY></HTML>`,
	}
	srv := siteServer(t, pages, "")
	defer srv.Close()

	r := NewRobot()
	fetched, err := r.Crawl(srv.URL+"/", func(Page) {})
	if err != nil {
		t.Fatal(err)
	}
	if fetched != 2 {
		t.Errorf("fetched = %d, want 2 (deduplicated)", fetched)
	}
}

// TestRobotResolvesLinksAsServed: a page's links resolve against the
// URL a redirect served it from, or against its <BASE HREF>, and the
// redirect's target is not fetched again as a page of its own.
func TestRobotResolvesLinksAsServed(t *testing.T) {
	pages := map[string]string{
		"/":              `<A HREF="dir">dir</A><A HREF="b/">b</A>`,
		"/dir/":          `<A HREF="page.html">page</A>`,
		"/b/":            `<BASE HREF="/dir/"><A HREF="page.html">page</A>`,
		"/dir/page.html": `leaf`,
	}
	var mu sync.Mutex
	var requested []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		requested = append(requested, r.URL.Path)
		mu.Unlock()
		if r.URL.Path == "/dir" {
			http.Redirect(w, r, "/dir/", http.StatusMovedPermanently)
			return
		}
		body, ok := pages[r.URL.Path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, "<HTML><BODY>"+body+"</BODY></HTML>")
	}))
	defer srv.Close()

	var visited []string
	if _, err := NewRobot().Crawl(srv.URL+"/", func(p Page) {
		visited = append(visited, fmt.Sprintf("%s %d", strings.TrimPrefix(p.URL, srv.URL), p.Status))
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Join(visited, ", "), "/ 200, /dir 200, /b/ 200, /dir/page.html 200"; got != want {
		t.Errorf("visited %s, want %s", got, want)
	}
	if got, want := strings.Join(requested, ", "), "/robots.txt, /, /dir, /dir/, /b/, /dir/page.html"; got != want {
		t.Errorf("requested %s, want %s", got, want)
	}
}

func TestRobotPolitenessDelay(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><A HREF="/a.html">a</A><A HREF="/b.html">b</A></BODY></HTML>`,
		"a.html":     `<HTML><HEAD><TITLE>a</TITLE></HEAD><BODY>leaf</BODY></HTML>`,
		"b.html":     `<HTML><HEAD><TITLE>b</TITLE></HEAD><BODY>leaf</BODY></HTML>`,
	}
	srv := siteServer(t, pages, "")
	defer srv.Close()

	r := NewRobot()
	r.Delay = 40 * time.Millisecond

	start := time.Now()
	fetched, err := r.Crawl(srv.URL+"/", func(Page) {})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if fetched != 3 {
		t.Fatalf("fetched = %d", fetched)
	}
	// Three fetches means at least two inter-request delays.
	if elapsed < 80*time.Millisecond {
		t.Errorf("crawl of 3 pages took %v; politeness delay not honoured", elapsed)
	}
}

func TestCrawlRejectsBadStart(t *testing.T) {
	r := NewRobot()
	if _, err := r.Crawl("ftp://x/", func(Page) {}); err == nil {
		t.Error("non-http start accepted")
	}
	if _, err := r.Crawl("://bad", func(Page) {}); err == nil {
		t.Error("malformed start accepted")
	}
}

// TestPrefetchOrderEquivalence: the pipelined crawl must visit exactly
// the pages a sequential crawl visits, in the same breadth-first
// order, for any prefetch depth.
func TestPrefetchOrderEquivalence(t *testing.T) {
	pages := corpus.GenerateSite(corpus.SiteConfig{
		Seed: 21, Pages: 18, BrokenLinks: 2, Subdirs: 2,
	})
	srv := siteServer(t, pages, "")
	defer srv.Close()

	crawl := func(prefetch int) []string {
		r := NewRobot()
		r.Prefetch = prefetch
		var order []string
		if _, err := r.Crawl(srv.URL+"/", func(p Page) { order = append(order, p.URL) }); err != nil {
			t.Fatal(err)
		}
		return order
	}

	want := crawl(1)
	if len(want) == 0 {
		t.Fatal("sequential crawl visited nothing")
	}
	for _, prefetch := range []int{2, 8, 64} {
		got := crawl(prefetch)
		if len(got) != len(want) {
			t.Fatalf("prefetch=%d visited %d pages, sequential %d", prefetch, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("prefetch=%d: visit %d is %s, sequential visited %s", prefetch, i, got[i], want[i])
			}
		}
	}
}

// TestPrefetchMaxPages: the pipeline must not fetch past MaxPages even
// with a deep prefetch window.
func TestPrefetchMaxPages(t *testing.T) {
	pages := corpus.GenerateSite(corpus.SiteConfig{Seed: 4, Pages: 20})
	srv := siteServer(t, pages, "")
	defer srv.Close()

	r := NewRobot()
	r.MaxPages = 5
	r.Prefetch = 16
	visited := 0
	fetched, err := r.Crawl(srv.URL+"/", func(p Page) { visited++ })
	if err != nil {
		t.Fatal(err)
	}
	if fetched != 5 || visited != 5 {
		t.Errorf("fetched=%d visited=%d, want 5", fetched, visited)
	}
}
