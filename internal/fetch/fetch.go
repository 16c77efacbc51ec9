// Package fetch provides the shared hardened HTTP fetch client used
// by every surface that retrieves documents from the network: the
// gateway's check-by-URL form and lint.ReadURL (the library's, the
// batch engine's and the CLI's -u intake) call Fetch; the poacher
// robot and the remote link checker send their requests with Do, and
// the robot reads a page's body with ReadBody. No other code builds an
// outbound request. It exists because a bare http.Get in a long-lived
// service is a liability: no connect timeout, no total budget,
// unlimited redirects, unbounded response bodies, and a willingness to
// fetch link-local metadata endpoints on behalf of whoever submitted
// the form.
//
// The client enforces, in one place:
//
//   - a connect timeout and a total per-request timeout;
//   - a redirect cap;
//   - a response-size limit (exceeding it is an error, never a silent
//     truncation);
//   - the User-Agent every request carries;
//   - a private/loopback/link-local address guard, applied at dial
//     time against the resolved connect address — so DNS rebinding and
//     redirects cannot smuggle a request past it. Surfaces that check
//     the operator's own site (the robot, the link checker, the CLI)
//     opt in to private targets with AllowPrivate; the public gateway
//     leaves it off unless started with -allow-private-fetch.
package fetch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"syscall"
	"time"

	"weblint/internal/faultinject"
)

// Options configures a Client. The zero value gets conservative
// service defaults; see the field comments.
type Options struct {
	// Timeout bounds the whole request, body read included
	// (default 15s). A per-call context deadline may shorten it.
	Timeout time.Duration
	// MaxRedirects caps how many redirects are followed (default 5).
	MaxRedirects int
	// MaxBody caps the response body, in bytes (default 4 MiB).
	// A longer body fails with ErrBodyTooLarge; it is never silently
	// truncated.
	MaxBody int64
	// AllowPrivate permits connections to loopback, RFC 1918,
	// link-local and otherwise non-public addresses. Off by default:
	// a service fetching attacker-supplied URLs must not reach
	// 169.254.169.254 or the operator's intranet.
	AllowPrivate bool
	// UserAgent is sent with requests (default "weblint-fetch/1.0").
	UserAgent string
}

// connectTimeout bounds TCP connect and, separately, the TLS handshake.
const connectTimeout = 5 * time.Second

// ErrBodyTooLarge reports a response body over the MaxBody cap.
var ErrBodyTooLarge = errors.New("response body exceeds size limit")

// ErrPrivateAddress reports a dial blocked by the private-address
// guard.
var ErrPrivateAddress = errors.New("target resolves to a private or local address (start the gateway with -allow-private-fetch to permit)")

// ErrTooManyRedirects reports a redirect chain over the cap.
var ErrTooManyRedirects = errors.New("too many redirects")

// Client is a hardened fetcher. Construct with New; a Client is
// immutable and safe for concurrent use.
type Client struct {
	opts Options
	http *http.Client
}

// New builds a Client from options, filling defaults.
func New(o Options) *Client {
	if o.Timeout <= 0 {
		o.Timeout = 15 * time.Second
	}
	if o.MaxRedirects <= 0 {
		o.MaxRedirects = 5
	}
	if o.MaxBody <= 0 {
		o.MaxBody = 4 << 20
	}
	if o.UserAgent == "" {
		o.UserAgent = "weblint-fetch/1.0"
	}

	dialer := &net.Dialer{Timeout: connectTimeout}
	if !o.AllowPrivate {
		// The guard runs against the address actually being connected
		// to, after DNS resolution — the only point where a rebinding
		// or redirecting attacker cannot lie about the target.
		dialer.Control = func(network, address string, _ syscall.RawConn) error {
			host, _, err := net.SplitHostPort(address)
			if err != nil {
				return fmt.Errorf("fetch: bad dial address %q: %w", address, err)
			}
			ip := net.ParseIP(host)
			if ip == nil || !isPublic(ip) {
				return ErrPrivateAddress
			}
			return nil
		}
	}
	transport := &http.Transport{
		Proxy:                 http.ProxyFromEnvironment,
		DialContext:           dialer.DialContext,
		TLSHandshakeTimeout:   connectTimeout,
		ResponseHeaderTimeout: o.Timeout,
		MaxIdleConns:          32,
		IdleConnTimeout:       30 * time.Second,
	}
	maxRedirects := o.MaxRedirects
	return &Client{
		opts: o,
		http: &http.Client{
			Timeout:   o.Timeout,
			Transport: transport,
			CheckRedirect: func(req *http.Request, via []*http.Request) error {
				if len(via) >= maxRedirects {
					return ErrTooManyRedirects
				}
				return nil
			},
		},
	}
}

// isPublic reports whether ip is a routable public address — not
// loopback, not RFC 1918/4193 private space, not link-local (which
// includes the cloud metadata range 169.254.0.0/16), and not the
// unspecified address.
func isPublic(ip net.IP) bool {
	return !(ip.IsLoopback() || ip.IsPrivate() || ip.IsLinkLocalUnicast() ||
		ip.IsLinkLocalMulticast() || ip.IsInterfaceLocalMulticast() ||
		ip.IsUnspecified())
}

// MaxBody returns the configured response-size cap.
func (c *Client) MaxBody() int64 { return c.opts.MaxBody }

// Do sends a method request for url, carrying the client's
// User-Agent, through the hardened transport, and returns the response
// with its body unread; the caller closes it. Every limit but MaxBody
// applies: ReadBody enforces that one for a caller that wants the body
// whole. Transport errors come back unwrapped, as http.Client.Do
// returns them, and a non-2xx status is not an error.
func (c *Client) Do(ctx context.Context, method, url string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("User-Agent", c.opts.UserAgent)
	return c.http.Do(req)
}

// ReadBody reads the body of a response Do returned into buf. A body
// longer than MaxBody fails with an error wrapping ErrBodyTooLarge: it
// is never truncated. The caller still closes the body.
func (c *Client) ReadBody(resp *http.Response, buf *bytes.Buffer) error {
	// Read one byte past the cap: hitting it means the document is
	// over the limit, and linting a silently truncated prefix would
	// report findings for a document nobody submitted.
	n, err := buf.ReadFrom(io.LimitReader(resp.Body, c.opts.MaxBody+1))
	if err != nil {
		return err
	}
	if n > c.opts.MaxBody {
		return fmt.Errorf("%w (limit %d bytes)", ErrBodyTooLarge, c.opts.MaxBody)
	}
	return nil
}

// Result describes a completed fetch.
type Result struct {
	// Status is the final HTTP status code.
	Status int
	// ContentType is the response Content-Type header.
	ContentType string
	// FinalURL is the URL after redirects (equal to the request URL
	// when none were followed).
	FinalURL string
}

// Fetch retrieves url into buf, enforcing every configured limit, and
// reports the response status: Do with GET, then ReadBody. Transport
// failures, blocked dials, redirect-cap and body-size violations
// return errors; a non-2xx status is not an error — the caller decides
// what statuses mean. The injection point "fetch.get" fires before the
// request is made.
func (c *Client) Fetch(ctx context.Context, url string, buf *bytes.Buffer) (Result, error) {
	if err := faultinject.FireCtx(ctx, "fetch.get"); err != nil {
		return Result{}, fmt.Errorf("retrieving %s: %w", url, err)
	}
	resp, err := c.Do(ctx, http.MethodGet, url)
	if err != nil {
		return Result{}, fmt.Errorf("retrieving %s: %w", url, err)
	}
	defer resp.Body.Close()

	res := Result{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		FinalURL:    resp.Request.URL.String(),
	}
	if err := c.ReadBody(resp, buf); err != nil {
		return res, fmt.Errorf("retrieving %s: %w", url, err)
	}
	return res, nil
}
