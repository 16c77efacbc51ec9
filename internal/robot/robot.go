// Package robot implements the web traversal engine used by poacher,
// weblint's site-checking robot (the paper's WWW::Robot substitute):
// a URL frontier with per-host politeness, the robots exclusion
// protocol, bounded depth and page count, and a visitor callback which
// receives each fetched page. Every request goes through one hardened
// fetch.Client (Do, then ReadBody for an HTML page's body) and
// identifies itself as poacher (linkcheck.UserAgent), the name its
// robots.txt group matching reads too.
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
	// URL is the canonical fetched URL.
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
	// Err is set when the fetch failed at the transport level, or when
	// an HTML page is longer than the fetch client's body cap (wrapping
	// fetch.ErrBodyTooLarge).
	Err error
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
	// Prefetch bounds how many page fetches may be in flight ahead of
	// the visitor, overlapping network latency with the visitor's
	// linting. Zero or one means strictly sequential requests — the
	// polite default for a robot — and a politeness Delay forces
	// sequential fetching regardless; poacher opts into a pipeline of
	// 4. Pages are still delivered to the visitor in exact
	// breadth-first order, so prefetching never changes what a crawl
	// reports.
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
// Fetching is pipelined: up to Prefetch pages from the front of the
// frontier are retrieved concurrently while the visitor processes
// earlier ones, so network latency overlaps linting. Delivery order
// is still exact breadth-first order — each in-flight fetch has its
// own result slot and the visitor drains slots in dispatch order — so
// a pipelined crawl visits the same pages in the same order as a
// sequential one.
func (r *Robot) Crawl(start string, visit func(Page)) (int, error) {
	return r.CrawlWhile(start, func(p Page) bool { visit(p); return true })
}

// CrawlWhile is Crawl with cancellation, mirroring the sink contract
// of the diagnostics pipeline: returning false from visit stops the
// crawl promptly — no further pages are fetched, in-flight prefetches
// are discarded undelivered, and the count of pages fetched so far is
// returned.
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
	prefetch := r.Prefetch
	if prefetch <= 0 || r.Delay > 0 {
		// Sequential by default, and always under a politeness delay:
		// one request at a time, spaced out.
		prefetch = 1
	}

	policy := fetchRobotsTxt(base)

	type item struct {
		u     *url.URL
		depth int
	}
	queue := []item{{base, 0}}
	seen := map[string]bool{canonical(base): true}
	fetched := 0
	var lastFetch time.Time

	// inflight holds one result slot per dispatched fetch, in dispatch
	// order. dispatch fills the pipeline from the frontier; the main
	// loop drains the oldest slot, visits, and extends the frontier.
	type slot struct {
		ch    chan Page
		u     *url.URL
		depth int
	}
	var inflight []slot
	dispatched := 0
	dispatch := func() {
		for len(inflight) < prefetch && len(queue) > 0 && dispatched < maxPages {
			it := queue[0]
			queue = queue[1:]
			if !policy.Allowed(it.u.Path) {
				continue
			}
			if r.Delay > 0 {
				if since := time.Since(lastFetch); since < r.Delay {
					time.Sleep(r.Delay - since)
				}
			}
			lastFetch = time.Now()
			ch := make(chan Page, 1)
			inflight = append(inflight, slot{ch, it.u, it.depth})
			dispatched++
			go func(u *url.URL, depth int) {
				ch <- r.fetch(u, depth)
			}(it.u, it.depth)
		}
	}

	for {
		dispatch()
		if len(inflight) == 0 {
			break
		}
		s := inflight[0]
		inflight = inflight[1:]
		page := <-s.ch
		fetched++
		if !visit(page) {
			// Abandoning in-flight fetches is safe: every slot channel
			// is buffered, so the fetch goroutines complete and are
			// collected without a reader.
			break
		}

		if page.Err != nil || page.Status != http.StatusOK || s.depth >= maxDepth {
			continue
		}
		for _, link := range page.Links {
			next, err := s.u.Parse(link.URL)
			if err != nil {
				continue
			}
			next.Fragment = ""
			if next.Scheme != "http" && next.Scheme != "https" {
				continue
			}
			if next.Host != base.Host {
				continue
			}
			key := canonical(next)
			if seen[key] {
				continue
			}
			seen[key] = true
			queue = append(queue, item{next, s.depth + 1})
		}
	}
	return fetched, nil
}

// fetch retrieves one page and, when it is HTML, reads its body under
// the fetch client's cap and extracts its links. The crawl's signature
// carries no context, so requests run under the client's own timeout.
func (r *Robot) fetch(u *url.URL, depth int) Page {
	page := Page{URL: u.String(), Depth: depth}
	resp, err := client().Do(context.TODO(), http.MethodGet, page.URL)
	if err != nil {
		page.Err = err
		return page
	}
	defer resp.Body.Close()
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
	page.Links = linkcheck.Extract(page.Body)
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
