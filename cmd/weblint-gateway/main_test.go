package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"weblint/internal/gateway"
	"weblint/internal/lint"
	"weblint/internal/serve"
)

// TestStartPprofServes asserts the opt-in profiling listener answers
// the pprof index and a (short) CPU profile on its own address.
func TestStartPprofServes(t *testing.T) {
	ln, err := startPprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	client := &http.Client{Timeout: 10 * time.Second}
	resp, err := client.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d, want 200", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Fatal("pprof index returned an empty body")
	}

	// A real (1 second) CPU profile round trip, the endpoint the
	// production-flamegraph workflow depends on.
	resp2, err := client.Get(base + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof profile: status %d, want 200", resp2.StatusCode)
	}
	prof, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) == 0 {
		t.Fatal("pprof profile returned an empty body")
	}
}

// TestGatewayMuxStaysDark asserts the public gateway mux exposes no
// profiling surface: pprof rides only the separate -pprof-addr
// listener, and a default deployment has none at all. (The gateway
// serves its form page as a catch-all, so /debug/pprof/ paths answer
// with HTML — what must never appear there is pprof output.)
func TestGatewayMuxStaysDark(t *testing.T) {
	h := gateway.NewHandler(lint.MustNew(lint.Options{}))
	h.Limiter = serve.NewLimiter(1, time.Second)
	mux := h.Mux(&serve.Health{}, nil)

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/profile?seconds=1", "/debug/pprof/heap"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, req)
		if ct := rec.Header().Get("Content-Type"); strings.Contains(ct, "application/octet-stream") {
			t.Errorf("%s on the public mux returned a binary profile (Content-Type %q)", path, ct)
		}
		if strings.Contains(rec.Body.String(), "Types of profiles available") {
			t.Errorf("%s on the public mux served the pprof index", path)
		}
	}
}

// TestSettingsSplitsExtensions: -x takes a list, as the CLI's does, so
// "netscape,microsoft" enables both vendors' markup.
func TestSettingsSplitsExtensions(t *testing.T) {
	const page = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\">\n" +
		"<HTML><HEAD><TITLE>v</TITLE></HEAD><BODY><BLINK>x</BLINK><MARQUEE>y</MARQUEE></BODY></HTML>"
	for exts, want := range map[string]int{"": 2, "netscape": 1, "netscape,microsoft": 0, "netscape microsoft": 0} {
		l, err := lint.New(lint.Options{Settings: settings("", exts)})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(l.CheckString("v.html", page)); got != want {
			t.Errorf("-x %q: %d vendor findings, want %d", exts, got, want)
		}
	}
}
