package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync/atomic"
	"testing"

	"weblint/internal/baseline"
	"weblint/internal/corpus"
)

// capture runs poacher's main loop with stdout redirected.
func capture(t *testing.T, args ...string) (int, string) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	code := run(args)
	_ = w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(r)
	return code, buf.String()
}

func testSite(t *testing.T) *httptest.Server {
	t.Helper()
	pages := corpus.GenerateSite(corpus.SiteConfig{
		Seed: 21, Pages: 8, BrokenLinks: 1, Subdirs: 1,
		Errors: corpus.ErrorRates{Misspell: 0.3},
	})
	mux := http.NewServeMux()
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
	t.Cleanup(srv.Close)
	return srv
}

func TestPoacherCrawlReportsProblems(t *testing.T) {
	srv := testSite(t)
	code, out := capture(t, "-s", srv.URL+"/")
	if code != 1 {
		t.Errorf("exit = %d, want 1 (problems found)", code)
	}
	if !strings.Contains(out, "unknown element") {
		t.Errorf("lint output missing: %s", out)
	}
	if !strings.Contains(out, "HTTP 404") {
		t.Errorf("broken link missing: %s", out)
	}
	if !strings.Contains(out, "pages fetched:") {
		t.Errorf("summary missing: %s", out)
	}
}

func TestPoacherQuiet(t *testing.T) {
	srv := testSite(t)
	_, out := capture(t, "-q", "-s", srv.URL+"/")
	if strings.Contains(out, "checking ") || strings.Contains(out, "pages fetched:") {
		t.Errorf("-q still printed progress: %s", out)
	}
}

func TestPoacherMaxPages(t *testing.T) {
	srv := testSite(t)
	_, out := capture(t, "-max-pages", "3", srv.URL+"/")
	if !strings.Contains(out, "pages fetched: 3") {
		t.Errorf("max-pages ignored: %s", out)
	}
}

func TestPoacherUsage(t *testing.T) {
	code, _ := capture(t)
	if code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
	code, _ = capture(t, "http://a/", "http://b/")
	if code != 2 {
		t.Errorf("two-args exit = %d, want 2", code)
	}
}

func TestPoacherBadStartURL(t *testing.T) {
	code, _ := capture(t, "ftp://example.org/")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
}

// TestPoacherJSONFormat: -format json keeps stdout a pure JSON Lines
// diagnostics stream (progress and stats move to stderr) and reports
// broken pages as bad-link findings.
func TestPoacherJSONFormat(t *testing.T) {
	srv := testSite(t)
	code, out := capture(t, "-format", "json", srv.URL+"/")
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	sawLint, sawBroken := false, false
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		var m struct {
			ID       string `json:"id"`
			Category string `json:"category"`
			File     string `json:"file"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("stdout line %q is not JSON: %v", line, err)
		}
		if m.ID == "bad-link" && m.Category == "error" {
			sawBroken = true
		}
		if m.ID == "unknown-element" {
			sawLint = true
		}
	}
	if !sawLint || !sawBroken {
		t.Errorf("stream missing findings (lint=%v broken=%v):\n%s", sawLint, sawBroken, out)
	}

	// The summary counts suppressed emissions per rule as the CLI's
	// does: `weblint -norc -format json` on this page ends with
	// "suppressed":{"img-size":1,"require-meta":2}.
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, "<HTML>\n<BODY>\n<IMG SRC=\"a.gif\">\n</BODY>\n</HTML>\n")
	})
	page := httptest.NewServer(mux)
	defer page.Close()
	_, out = capture(t, "-q", "-format", "json", page.URL+"/")
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	var last struct {
		Summary struct {
			Suppressed map[string]int `json:"suppressed"`
		} `json:"summary"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last stdout line is not JSON: %v\n%s", err, out)
	}
	if want := map[string]int{"img-size": 1, "require-meta": 2}; !maps.Equal(last.Summary.Suppressed, want) {
		t.Errorf("summary suppressed = %v, want the CLI's %v", last.Summary.Suppressed, want)
	}
}

// TestPoacherFailOn: -fail-on never reports but exits 0.
func TestPoacherFailOn(t *testing.T) {
	srv := testSite(t)
	code, out := capture(t, "-fail-on", "never", "-s", srv.URL+"/")
	if code != 0 {
		t.Errorf("exit = %d, want 0 under -fail-on never", code)
	}
	if !strings.Contains(out, "unknown element") {
		t.Errorf("findings still reported under -fail-on never: %s", out)
	}
	if code, _ := capture(t, "-fail-on", "fatal", srv.URL+"/"); code != 2 {
		t.Errorf("bad -fail-on exit = %d, want 2", code)
	}
}

// TestPoacherStopsOnClosedPipe: when stdout goes away mid-crawl (the
// `poacher ... | head` case), the renderer sink cancels and the crawl
// stops promptly instead of fetching the rest of the site.
func TestPoacherStopsOnClosedPipe(t *testing.T) {
	var served atomic.Int32
	var srvURL string
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		w.Header().Set("Content-Type", "text/html")
		// Broken page (no doctype/title) with a link chain, so every
		// page writes findings and extends the frontier.
		fmt.Fprintf(w, `<HTML><BODY><A HREF="%s/p%d">next</A></BODY></HTML>`, srvURL, served.Load())
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	srvURL = srv.URL

	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	_ = r.Close() // reader gone: the first flushed write fails
	os.Stdout = w
	code := run([]string{"-q", "-max-pages", "200", srvURL + "/"})
	_ = w.Close()
	os.Stdout = old

	if code != 2 {
		t.Errorf("exit = %d, want 2 (write failure is operational)", code)
	}
	if n := served.Load(); n > 20 {
		t.Errorf("%d pages fetched after stdout closed; crawl did not cancel", n)
	}
}

// TestPoacherBaseline: record a crawl's findings, re-crawl against the
// baseline (exit 0, nothing reported), then confirm a fresh finding
// still fails.
func TestPoacherBaseline(t *testing.T) {
	srv := testSite(t)
	defer srv.Close()
	base := t.TempDir() + "/base.json"

	code, _ := capture(t, "-q", "-baseline-write", base, srv.URL+"/")
	if code != 0 {
		t.Fatalf("baseline-write exit = %d", code)
	}
	if _, err := os.Stat(base); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}

	code, out := capture(t, "-q", "-baseline", base, srv.URL+"/")
	if code != 0 {
		t.Fatalf("baselined crawl exit = %d, out:\n%s", code, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("baselined crawl reported findings:\n%s", out)
	}

	// An empty baseline reports everything again.
	if err := os.WriteFile(base, baseline.New().Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out = capture(t, "-q", "-baseline", base, srv.URL+"/")
	if code != 1 || strings.TrimSpace(out) == "" {
		t.Fatalf("empty-baseline crawl exit = %d, out:\n%s", code, out)
	}
}

// TestPoacherBaselineAndWrite: with -baseline and -baseline-write
// together, every page reaches both layers. A crawl against its own
// baseline renders nothing, exits 0, and re-records the same file;
// binding only the outer layer would report every finding as new.
func TestPoacherBaselineAndWrite(t *testing.T) {
	srv := testSite(t)
	dir := t.TempDir()
	first, second := dir+"/first.json", dir+"/second.json"
	if code, _ := capture(t, "-q", "-baseline-write", first, srv.URL+"/"); code != 0 {
		t.Fatalf("baseline-write exit = %d", code)
	}
	code, out := capture(t, "-q", "-baseline", first, "-baseline-write", second, srv.URL+"/")
	if code != 0 || strings.TrimSpace(out) != "" {
		t.Fatalf("crawl against its own baseline: exit = %d, out:\n%s", code, out)
	}
	a, errA := os.ReadFile(first)
	b, errB := os.ReadFile(second)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("re-recorded baseline differs:\n%s\nwant:\n%s", b, a)
	}
}
