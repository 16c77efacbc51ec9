// Package robot implements the web traversal engine used by poacher,
// weblint's site-checking robot (the paper's WWW::Robot substitute):
// a URL frontier with per-host politeness, the robots exclusion
// protocol, bounded depth and page count, and a visitor callback which
// receives each fetched page. Every request goes through one hardened
// fetch.Client (Do, then ReadBody for an HTML page's body) and
// identifies itself as poacher (linkcheck.UserAgent), the name its
// robots.txt group matching reads too.
//
// The crawl walks the frontier one depth at a time. Each level's
// fetches run on engine.OrderedSlice, the repo's one ordered fan-out,
// which delivers them to the visitor in discovery order; the visitor
// sees every depth-d page before any depth-d+1 page, and no fetch for
// level d+1 starts before level d has been visited.
package robot

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"weblint/internal/bytestr"
	"weblint/internal/engine"
	"weblint/internal/fetch"
	"weblint/internal/linkcheck"
)

// client is the robot's hardened fetcher: connect and total timeouts,
// a redirect cap and the 4 MiB page-body cap in one place. Private
// targets stay reachable — a robot is pointed at the operator's own
// site, often a local or intranet server.
var client = sync.OnceValue(func() *fetch.Client {
	return fetch.New(fetch.Options{
		Timeout:      15 * time.Second,
		AllowPrivate: true,
		UserAgent:    linkcheck.UserAgent,
	})
})

// Page is one fetched document delivered to the visitor.
type Page struct {
	// URL is the requested URL. A redirect may have served the page
	// from another; its links resolve against that one.
	URL string
	// Status is the HTTP status code.
	Status int
	// Body is the page content (only for HTML responses).
	Body string
	// ContentType is the response Content-Type header.
	ContentType string
	// Depth is the link distance from the start URL.
	Depth int
	// Links are the outbound links extracted from the body.
	Links []linkcheck.Link
	// OffSite are the page's http and https links to other hosts than
	// the crawl's, resolved against the page's base URL (its <BASE
	// HREF>, or else the URL it was served from) and without their
	// fragment, in source order. The robot never fetches them; they
	// are what a link checker probes. Links on the crawl's host feed
	// the frontier instead, and links with other schemes (mailto:,
	// ftp:) are in neither.
	OffSite []string
	// Err is set when the fetch failed at the transport level, or when
	// an HTML page is longer than the fetch client's body cap (wrapping
	// fetch.ErrBodyTooLarge).
	Err error

	onSite []*url.URL // resolved links on the crawl's host
	served *url.URL   // the URL the response came from, after redirects
}

// IsHTML reports whether the response is an HTML page: its
// Content-Type names text/html, or it has none. Only an HTML page has
// a Body and Links; anything else (an image, a stylesheet) is
// delivered with neither.
func (p *Page) IsHTML() bool {
	return p.ContentType == "" || strings.Contains(p.ContentType, "text/html")
}

// Robot crawls a web site, following links only within the start
// URL's host. The zero value is usable; fields customise behaviour.
type Robot struct {
	// MaxPages bounds the number of pages fetched (default 500).
	MaxPages int
	// MaxDepth bounds traversal depth (default 16).
	MaxDepth int
	// Delay is the politeness delay between requests to one host
	// (default none, suitable for checking your own site).
	Delay time.Duration
	// Prefetch is the number of fetch workers a crawl level runs on,
	// overlapping network latency with the visitor's linting; poacher
	// runs 4. Zero or one means one worker — the polite default for a
	// robot — and a politeness Delay forces one worker regardless. One
	// worker sends one request at a time, but fetches the next page of
	// a level while the visitor handles the current one. Pages are
	// still delivered in the same level-by-level order for any
	// Prefetch, so prefetching never changes what a crawl reports.
	Prefetch int
}

// NewRobot returns a Robot with the defaults used by poacher.
func NewRobot() *Robot {
	return &Robot{}
}

// Crawl traverses the site breadth-first from start, invoking visit
// for every fetched page (including error pages, so the visitor can
// report broken links). It returns the number of pages fetched.
//
// The frontier is walked one depth at a time: a level's URLs, minus
// those robots.txt disallows and cut to the remaining MaxPages budget,
// are fetched on Prefetch workers through engine.OrderedSlice and
// visited in the order they were discovered, and each visited page's
// unseen same-host links form the next level. That is the order a
// sequential FIFO crawl visits, so a crawl on many workers visits the
// same pages in the same order as one on a single worker. Under a
// Delay the single worker sleeps before each request until Delay has
// passed since the previous one.
func (r *Robot) Crawl(start string, visit func(Page)) (int, error) {
	return r.CrawlWhile(start, func(p Page) bool { visit(p); return true })
}

// CrawlWhile is Crawl with cancellation, mirroring the sink contract
// of the diagnostics pipeline: returning false from visit stops the
// crawl promptly — no further fetches are started, those already in
// flight are discarded undelivered, and the count of pages visited so
// far is returned.
func (r *Robot) CrawlWhile(start string, visit func(Page) bool) (int, error) {
	base, err := url.Parse(start)
	if err != nil {
		return 0, fmt.Errorf("robot: bad start URL: %w", err)
	}
	if base.Scheme != "http" && base.Scheme != "https" {
		return 0, errors.New("robot: start URL must be http or https")
	}

	maxPages := r.MaxPages
	if maxPages <= 0 {
		maxPages = 500
	}
	maxDepth := r.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 16
	}
	workers := r.Prefetch
	if workers <= 0 || r.Delay > 0 {
		// One worker by default, and always under a politeness delay:
		// one request at a time, spaced out.
		workers = 1
	}

	policy := fetchRobotsTxt(base)

	level := []*url.URL{base}
	seen := map[string]bool{canonical(base): true}
	fetched := 0
	stopped := false
	var lastFetch time.Time // read and written only by the one worker a Delay allows
	for depth := 0; len(level) > 0 && fetched < maxPages && !stopped; depth++ {
		var urls []*url.URL
		for _, u := range level {
			if len(urls) == maxPages-fetched {
				break
			}
			if policy.Allowed(u.Path) {
				urls = append(urls, u)
			}
		}
		level = nil
		engine.OrderedSlice(workers, workers, urls, func(_ int, u *url.URL) Page {
			if r.Delay > 0 {
				time.Sleep(r.Delay - time.Since(lastFetch))
				lastFetch = time.Now()
			}
			return r.fetch(u, depth, base.Host)
		}, func(_ int, page Page) bool {
			fetched++
			if page.served != nil {
				// A page reached through a redirect is not fetched
				// again as a page of its own.
				seen[canonical(page.served)] = true
			}
			if !visit(page) {
				stopped = true
				return false
			}
			if page.Err != nil || page.Status != http.StatusOK || depth >= maxDepth {
				return true
			}
			for _, next := range page.onSite {
				if key := canonical(next); !seen[key] {
					seen[key] = true
					level = append(level, next)
				}
			}
			return true
		})
	}
	return fetched, nil
}

// fetch retrieves one page and, when it is HTML, reads its body under
// the fetch client's cap, extracts its links and resolves each once
// against the page's base URL, as a browser does: the first <BASE
// HREF>, or else the URL the response was served from, which a
// redirect may have moved from u. The http(s) links on host feed the
// frontier, those to other hosts become Page.OffSite. The crawl's
// signature carries no context, so requests run under the client's
// own timeout.
func (r *Robot) fetch(u *url.URL, depth int, host string) Page {
	page := Page{URL: u.String(), Depth: depth}
	resp, err := client().Do(context.TODO(), http.MethodGet, page.URL)
	if err != nil {
		page.Err = err
		return page
	}
	defer resp.Body.Close()
	page.served = resp.Request.URL
	page.Status = resp.StatusCode
	page.ContentType = resp.Header.Get("Content-Type")
	if !page.IsHTML() {
		return page
	}
	var body bytes.Buffer
	if err := client().ReadBody(resp, &body); err != nil {
		page.Err = fmt.Errorf("retrieving %s: %w", page.URL, err)
		return page
	}
	// The freshly read buffer is never written again: view it as a
	// string instead of copying all 4 MB-worth of page once more.
	page.Body = bytestr.String(body.Bytes())
	page.Links, _ = linkcheck.Scan(page.Body)
	base := page.served
	for _, link := range page.Links {
		if link.Element == "base" {
			if b, err := page.served.Parse(link.URL); err == nil {
				base = b
			}
			break
		}
	}
	for _, link := range page.Links {
		against := base
		if link.Element == "base" {
			against = page.served // a BASE names itself from the page's URL
		}
		next, err := against.Parse(link.URL)
		if err != nil || next.Scheme != "http" && next.Scheme != "https" {
			continue
		}
		next.Fragment = ""
		if next.Host == host {
			page.onSite = append(page.onSite, next)
		} else {
			page.OffSite = append(page.OffSite, next.String())
		}
	}
	return page
}

// fetchRobotsTxt retrieves and parses the host's robots.txt; a missing
// or unreadable file yields a permit-everything policy.
func fetchRobotsTxt(base *url.URL) *RobotsPolicy {
	u := *base
	u.Path = "/robots.txt"
	u.RawQuery = ""
	resp, err := client().Do(context.TODO(), http.MethodGet, u.String())
	if err != nil {
		return &RobotsPolicy{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &RobotsPolicy{}
	}
	// RFC 9309 §2.5 lets a crawler parse only a prefix of a long
	// robots.txt, so the first 1 MiB is read here, not through
	// ReadBody: its over-cap error would permit everything.
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return &RobotsPolicy{}
	}
	return ParseRobotsTxt(string(body), linkcheck.UserAgent)
}

// canonical returns a canonical key for visited-set membership.
func canonical(u *url.URL) string {
	c := *u
	c.Fragment = ""
	if c.Path == "" {
		c.Path = "/"
	}
	return c.String()
}

// CrawlStats summarises a crawl for reports.
type CrawlStats struct {
	Pages    int
	Statuses map[int]int
	ByHost   map[string]int
	mu       sync.Mutex
}

// NewCrawlStats returns an empty stats collector.
func NewCrawlStats() *CrawlStats {
	return &CrawlStats{Statuses: map[int]int{}, ByHost: map[string]int{}}
}

// Record adds one page to the stats; safe for concurrent use.
func (s *CrawlStats) Record(p Page) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.Pages++
	s.Statuses[p.Status]++
	if u, err := url.Parse(p.URL); err == nil {
		s.ByHost[u.Host]++
	}
}

// Summary renders the stats as sorted "status: count" lines.
func (s *CrawlStats) Summary() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var codes []int
	for c := range s.Statuses {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	var b strings.Builder
	fmt.Fprintf(&b, "pages fetched: %d\n", s.Pages)
	for _, c := range codes {
		fmt.Fprintf(&b, "  status %d: %d\n", c, s.Statuses[c])
	}
	return b.String()
}
