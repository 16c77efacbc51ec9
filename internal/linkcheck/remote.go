package linkcheck

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"weblint/internal/fetch"
)

// UserAgent identifies poacher, weblint's site-checking robot, in
// every request it sends: the link checker's probes here and the
// robot's page and robots.txt fetches, whose robots.txt group matching
// reads it too.
const UserAgent = "poacher/2.0"

// client is the link checker's hardened fetcher, with the values its
// one caller, poacher, runs it with: a 10-second budget, the
// documented 10-redirect cap and poacher's identity. Private targets
// stay reachable — link checking runs against URLs the operator's own
// pages reference, intranet targets included.
var client = sync.OnceValue(func() *fetch.Client {
	return fetch.New(fetch.Options{
		Timeout:      10 * time.Second,
		MaxRedirects: 10,
		AllowPrivate: true,
		UserAgent:    UserAgent,
	})
})

// Result is the outcome of validating one remote URL.
type Result struct {
	// URL is the checked URL.
	URL string
	// Status is the final HTTP status code (0 on transport error).
	Status int
	// OK reports whether the target exists (2xx or 3xx after
	// redirects).
	OK bool
	// Err is the transport error, if any.
	Err error
	// FinalURL is the URL after following redirects, when it
	// differs from URL (the "smarter robots will handle redirects"
	// feature: callers can fix their links).
	FinalURL string
}

// String renders the result for reports.
func (r Result) String() string {
	switch {
	case r.Err != nil:
		return fmt.Sprintf("%s: error: %v", r.URL, r.Err)
	case !r.OK:
		return fmt.Sprintf("%s: %d", r.URL, r.Status)
	case r.FinalURL != "":
		return fmt.Sprintf("%s: ok (redirects to %s)", r.URL, r.FinalURL)
	default:
		return fmt.Sprintf("%s: ok", r.URL)
	}
}

// CheckOne validates a single URL: a HEAD request, retried as GET when
// the server rejects HEAD (405 or 501, a common server limitation).
func CheckOne(url string) Result {
	res := Result{URL: url}
	resp, err := client().Do(context.TODO(), http.MethodHead, url)
	if err == nil && (resp.StatusCode == http.StatusMethodNotAllowed ||
		resp.StatusCode == http.StatusNotImplemented) {
		resp.Body.Close()
		resp, err = client().Do(context.TODO(), http.MethodGet, url)
	}
	if err != nil {
		res.Err = err
		return res
	}
	defer resp.Body.Close()

	res.Status = resp.StatusCode
	res.OK = resp.StatusCode >= 200 && resp.StatusCode < 400
	if final := resp.Request.URL.String(); final != url {
		res.FinalURL = final
	}
	return res
}
