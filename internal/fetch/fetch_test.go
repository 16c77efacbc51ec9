package fetch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"weblint/internal/faultinject"
)

// testClient returns a client permitted to reach the httptest server's
// loopback address.
func testClient(o Options) *Client {
	o.AllowPrivate = true
	return New(o)
}

func TestFetchBody(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, "<HTML>hello</HTML>")
	}))
	defer srv.Close()

	var buf bytes.Buffer
	res, err := testClient(Options{}).Fetch(context.Background(), srv.URL, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || !strings.Contains(res.ContentType, "text/html") {
		t.Errorf("result = %+v", res)
	}
	if buf.String() != "<HTML>hello</HTML>" {
		t.Errorf("body = %q", buf.String())
	}
}

func TestPrivateAddressBlockedByDefault(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("request reached the origin through the private-address guard")
	}))
	defer srv.Close()

	var buf bytes.Buffer
	_, err := New(Options{}).Fetch(context.Background(), srv.URL, &buf)
	if !errors.Is(err, ErrPrivateAddress) {
		t.Fatalf("err = %v, want ErrPrivateAddress", err)
	}
}

func TestBodySizeLimitIsAnError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(bytes.Repeat([]byte("x"), 2048))
	}))
	defer srv.Close()

	var buf bytes.Buffer
	_, err := testClient(Options{MaxBody: 1024}).Fetch(context.Background(), srv.URL, &buf)
	if !errors.Is(err, ErrBodyTooLarge) {
		t.Fatalf("err = %v, want ErrBodyTooLarge", err)
	}

	// At the boundary it succeeds whole.
	buf.Reset()
	if _, err := testClient(Options{MaxBody: 2048}).Fetch(context.Background(), srv.URL, &buf); err != nil {
		t.Fatalf("exactly-at-limit fetch: %v", err)
	}
	if buf.Len() != 2048 {
		t.Errorf("body length = %d, want 2048", buf.Len())
	}
}

func TestRedirectCap(t *testing.T) {
	var srv *httptest.Server
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, srv.URL+r.URL.Path+"x", http.StatusFound)
	}))
	defer srv.Close()

	var buf bytes.Buffer
	_, err := testClient(Options{MaxRedirects: 3}).Fetch(context.Background(), srv.URL, &buf)
	if err == nil || !strings.Contains(err.Error(), "too many redirects") {
		t.Fatalf("err = %v, want redirect cap", err)
	}
}

func TestRedirectFollowedWithinCap(t *testing.T) {
	var srv *httptest.Server
	srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/start" {
			http.Redirect(w, r, srv.URL+"/end", http.StatusMovedPermanently)
			return
		}
		fmt.Fprint(w, "arrived")
	}))
	defer srv.Close()

	var buf bytes.Buffer
	res, err := testClient(Options{}).Fetch(context.Background(), srv.URL+"/start", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if buf.String() != "arrived" || !strings.HasSuffix(res.FinalURL, "/end") {
		t.Errorf("body = %q, final = %q", buf.String(), res.FinalURL)
	}
}

func TestNonOKStatusIsNotAnError(t *testing.T) {
	srv := httptest.NewServer(http.NotFoundHandler())
	defer srv.Close()

	var buf bytes.Buffer
	res, err := testClient(Options{}).Fetch(context.Background(), srv.URL, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 404 {
		t.Errorf("status = %d", res.Status)
	}
}

func TestContextDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	var buf bytes.Buffer
	start := time.Now()
	_, err := testClient(Options{}).Fetch(ctx, srv.URL, &buf)
	if err == nil {
		t.Fatal("fetch of a stalled origin succeeded")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("context deadline not honoured (took %v)", time.Since(start))
	}
}

func TestInjectedFetchFailure(t *testing.T) {
	defer faultinject.Reset()
	boom := errors.New("injected fetch outage")
	faultinject.Arm("fetch.get", faultinject.Fault{Err: boom})

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("request reached the origin despite injected failure")
	}))
	defer srv.Close()

	var buf bytes.Buffer
	_, err := testClient(Options{}).Fetch(context.Background(), srv.URL, &buf)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected", err)
	}
}

func TestIsPublic(t *testing.T) {
	private := []string{"127.0.0.1", "10.0.0.8", "172.16.3.4", "192.168.1.1",
		"169.254.169.254", "0.0.0.0", "::1", "fe80::1", "fc00::1"}
	for _, s := range private {
		if isPublic(parseIP(t, s)) {
			t.Errorf("isPublic(%s) = true", s)
		}
	}
	public := []string{"93.184.216.34", "8.8.8.8", "2001:4860:4860::8888"}
	for _, s := range public {
		if !isPublic(parseIP(t, s)) {
			t.Errorf("isPublic(%s) = false", s)
		}
	}
}

func parseIP(t *testing.T, s string) net.IP {
	t.Helper()
	ip := net.ParseIP(s)
	if ip == nil {
		t.Fatalf("bad test IP %q", s)
	}
	return ip
}

func TestClientAccessors(t *testing.T) {
	c := New(Options{MaxBody: 1234})
	if c.MaxBody() != 1234 {
		t.Fatalf("MaxBody() = %d, want 1234", c.MaxBody())
	}
}

// TestDoSendsMethodAndUserAgent: Do sends the caller's method with the
// client's User-Agent and hands back the body unread, for ReadBody to
// read under the cap.
func TestDoSendsMethodAndUserAgent(t *testing.T) {
	var method, agent string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		method, agent = r.Method, r.UserAgent()
		fmt.Fprint(w, "0123456789")
	}))
	defer srv.Close()

	c := testClient(Options{UserAgent: "probe/1.0", MaxBody: 9})
	resp, err := c.Do(context.Background(), http.MethodHead, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if method != http.MethodHead || agent != "probe/1.0" {
		t.Errorf("origin saw %s with User-Agent %q, want HEAD with probe/1.0", method, agent)
	}

	resp, err = c.Do(context.Background(), http.MethodGet, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if err := c.ReadBody(resp, &buf); !errors.Is(err, ErrBodyTooLarge) {
		t.Errorf("ReadBody of a 10-byte body under a 9-byte cap: err = %v, want ErrBodyTooLarge", err)
	}
}
