// Package robot implements the web traversal engine used by poacher,
// weblint's site-checking robot (the paper's WWW::Robot substitute):
// a URL frontier with per-host politeness, the robots exclusion
// protocol, bounded depth and page count, and a visitor callback which
// receives each fetched page.
package robot

import (
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

// defaultClient is the shared hardened default: connect + total
// timeouts and a redirect cap in one place. Private targets stay
// reachable — a robot is pointed at the operator's own site, often a
// local or intranet server.
var defaultClient = sync.OnceValue(func() *http.Client {
	return fetch.New(fetch.Options{
		Timeout:      15 * time.Second,
		AllowPrivate: true,
		UserAgent:    "poacher/2.0",
	}).HTTPClient()
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
	// the page is longer than the robot reads (wrapping
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
	// Client is the HTTP client (nil: 15-second timeout).
	Client *http.Client
	// UserAgent identifies the robot (default "poacher/2.0").
	UserAgent string
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

func (r *Robot) client() *http.Client {
	if r.Client != nil {
		return r.Client
	}
	return defaultClient()
}

func (r *Robot) userAgent() string {
	if r.UserAgent != "" {
		return r.UserAgent
	}
	return "poacher/2.0"
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

	policy := r.fetchRobotsTxt(base)

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

// maxPageBytes is the longest page the robot reads.
const maxPageBytes = 4 << 20

// fetch retrieves one page and extracts its links when it is HTML.
func (r *Robot) fetch(u *url.URL, depth int) Page {
	page := Page{URL: u.String(), Depth: depth}
	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		page.Err = err
		return page
	}
	req.Header.Set("User-Agent", r.userAgent())
	resp, err := r.client().Do(req)
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
	// Read one byte past the cap: reaching it proves the page is over
	// the limit, where a cap-sized read would lint a truncated page and
	// lose the links in its tail.
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPageBytes+1))
	if err != nil {
		page.Err = err
		return page
	}
	if len(body) > maxPageBytes {
		page.Err = fmt.Errorf("retrieving %s: %w (limit %d bytes)", page.URL, fetch.ErrBodyTooLarge, maxPageBytes)
		return page
	}
	// The freshly read buffer is never written again: view it as a
	// string instead of copying all 4 MB-worth of page once more.
	page.Body = bytestr.String(body)
	page.Links = linkcheck.Extract(page.Body)
	return page
}

// fetchRobotsTxt retrieves and parses the host's robots.txt; a missing
// or unreadable file yields a permit-everything policy.
func (r *Robot) fetchRobotsTxt(base *url.URL) *RobotsPolicy {
	u := *base
	u.Path = "/robots.txt"
	u.RawQuery = ""
	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		return &RobotsPolicy{}
	}
	req.Header.Set("User-Agent", r.userAgent())
	resp, err := r.client().Do(req)
	if err != nil {
		return &RobotsPolicy{}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return &RobotsPolicy{}
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return &RobotsPolicy{}
	}
	return ParseRobotsTxt(string(body), r.userAgent())
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
