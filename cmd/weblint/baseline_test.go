package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weblint/internal/baseline"
)

// dirtyDoc has stable findings to baseline.
const dirtyDoc = `<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.0//EN">
<HTML><HEAD><TITLE>t</TITLE>
<META NAME="description" CONTENT="d"><META NAME="keywords" CONTENT="k">
</HEAD>
<BODY>
<IMG SRC="x.gif">
<P>text
</BODY></HTML>
`

// TestBaselineWriteThenClean: recording a baseline exits 0; an
// unchanged corpus diffed against it exits 0 and reports nothing;
// injecting one new finding flips the exit to 1 and reports only the
// new finding.
func TestBaselineWriteThenClean(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.html")
	b := filepath.Join(dir, "b.html")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte(dirtyDoc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	basePath := filepath.Join(dir, "weblint-baseline.json")

	// Record. The corpus has findings, but a recording run exits 0.
	code, _, stderr := runCLI(t, "", "-norc", "-baseline-write", basePath, a, b)
	if code != 0 {
		t.Fatalf("baseline-write exit = %d, stderr=%q", code, stderr)
	}
	if _, err := os.Stat(basePath); err != nil {
		t.Fatalf("baseline not written: %v", err)
	}

	// Unchanged corpus: clean run, nothing rendered.
	code, out, stderr := runCLI(t, "", "-norc", "-baseline", basePath, a, b)
	if code != 0 {
		t.Fatalf("unchanged corpus exit = %d, stderr=%q, out=%q", code, stderr, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("unchanged corpus rendered output:\n%s", out)
	}

	// Line drift above the findings stays clean.
	drifted := strings.Replace(dirtyDoc, "<BODY>", "<BODY>\n<P>intro", 1)
	if err := os.WriteFile(a, []byte(drifted), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCLI(t, "", "-norc", "-baseline", basePath, a, b)
	if code != 0 {
		t.Fatalf("drifted corpus exit = %d, out=%q", code, out)
	}

	// Inject one new finding: exit 1, and only the new finding shows.
	injected := strings.Replace(dirtyDoc, "<P>text", "<P>text\n<IMG SRC=\"new.gif\">", 1)
	if err := os.WriteFile(b, []byte(injected), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCLI(t, "", "-norc", "-baseline", basePath, a, b)
	if code != 1 {
		t.Fatalf("injected corpus exit = %d, want 1; out=%q", code, out)
	}
	if !strings.Contains(out, "new.gif") && !strings.Contains(out, "IMG") {
		t.Errorf("new finding not rendered:\n%s", out)
	}
	if c := strings.Count(strings.TrimSpace(out), "\n"); c > 1 {
		t.Errorf("baselined findings leaked into the report (%d lines):\n%s", c+1, out)
	}
}

// TestBaselineWithSARIF: the baseline filter composes with the SARIF
// renderer — a baselined run emits an empty results array.
func TestBaselineWithSARIF(t *testing.T) {
	path := writeTemp(t, "a.html", dirtyDoc)
	basePath := filepath.Join(filepath.Dir(path), "base.json")
	if code, _, stderr := runCLI(t, "", "-norc", "-baseline-write", basePath, path, path); code != 0 {
		t.Fatalf("record exit %d: %s", code, stderr)
	}
	code, out, _ := runCLI(t, "", "-norc", "-format", "sarif", "-baseline", basePath, path, path)
	if code != 0 {
		t.Fatalf("exit = %d", code)
	}
	if !strings.Contains(out, `"results": []`) {
		t.Errorf("SARIF results not empty:\n%s", out)
	}
}

// TestBaselineMissingFile: a missing baseline is an operational error.
func TestBaselineMissingFile(t *testing.T) {
	path := writeTemp(t, "a.html", dirtyDoc)
	code, _, stderr := runCLI(t, "", "-norc", "-baseline", "/nonexistent/base.json", path)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr=%q)", code, stderr)
	}
}

// TestBaselineRejectsFixMode: baselines apply to lint runs only.
func TestBaselineRejectsFixMode(t *testing.T) {
	path := writeTemp(t, "a.html", dirtyDoc)
	code, _, stderr := runCLI(t, "", "-norc", "-fix", "-baseline", "x.json", path)
	if code != 2 || !strings.Contains(stderr, "baseline") {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
}

// TestBaselineUpdatePrunesAndFails: -baseline-update prunes paid-down
// fingerprints from the baseline file while still failing on new
// findings — one run does both.
func TestBaselineUpdatePrunesAndFails(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.html")
	b := filepath.Join(dir, "b.html")
	for _, p := range []string{a, b} {
		if err := os.WriteFile(p, []byte(dirtyDoc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	basePath := filepath.Join(dir, "base.json")
	if code, _, stderr := runCLI(t, "", "-norc", "-baseline-write", basePath, a, b); code != 0 {
		t.Fatalf("record exit %d: %s", code, stderr)
	}
	recorded, err := baseline.Load(basePath)
	if err != nil {
		t.Fatal(err)
	}

	// Pay down a.html's IMG findings; the update run stays clean and
	// shrinks the baseline.
	fixed := strings.Replace(dirtyDoc, `<IMG SRC="x.gif">`,
		`<IMG SRC="x.gif" ALT="x" WIDTH=1 HEIGHT=1>`, 1)
	if err := os.WriteFile(a, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, stderr := runCLI(t, "", "-norc", "-baseline-update", basePath, a, b)
	if code != 0 {
		t.Fatalf("update exit = %d, stderr=%q, out=%q", code, stderr, out)
	}
	pruned, err := baseline.Load(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Total() >= recorded.Total() {
		t.Fatalf("baseline not pruned: %d -> %d findings", recorded.Total(), pruned.Total())
	}

	// The pruned allowance is really gone: un-fixing a.html now fails.
	if err := os.WriteFile(a, []byte(dirtyDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, out, _ := runCLI(t, "", "-norc", "-baseline", basePath, a, b); code != 1 {
		t.Fatalf("un-fixed run against pruned baseline exit = %d, want 1; out=%q", code, out)
	}

	// A new finding fails the update run — and the file is still
	// rewritten, so even the failing run prunes stale allowances (here
	// a planted fingerprint no finding matches).
	if err := os.WriteFile(a, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}
	injected := strings.Replace(dirtyDoc, "<P>text", "<P>text\n<IMG SRC=\"new.gif\">", 1)
	if err := os.WriteFile(b, []byte(injected), 0o644); err != nil {
		t.Fatal(err)
	}
	pruned.Add("deadbeefdeadbeef")
	if err := pruned.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCLI(t, "", "-norc", "-baseline-update", basePath, a, b)
	if code != 1 {
		t.Fatalf("update with new finding exit = %d, want 1; out=%q", code, out)
	}
	again, err := baseline.Load(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if _, stale := again.Findings["deadbeefdeadbeef"]; stale {
		t.Fatal("failing update run did not rewrite the baseline")
	}
}

// TestBaselineFlagsMutuallyExclusive: the three baseline modes cannot
// be combined.
func TestBaselineFlagsMutuallyExclusive(t *testing.T) {
	path := writeTemp(t, "a.html", dirtyDoc)
	code, _, stderr := runCLI(t, "", "-norc", "-baseline", "x.json", "-baseline-update", "y.json", path)
	if code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
}

// twoImgDoc has two img-alt findings in distinct contexts, plus three
// more on its other lines: five findings, five fingerprints when each
// is fingerprinted in its own context.
const twoImgDoc = "<HTML>\n<IMG SRC=\"a.gif\">\n<P>x</P>\n<IMG SRC=\"b.gif\">\n</HTML>\n"

// TestBaselineFingerprintsLintedBytes: stdin and -u documents have no
// file to re-read, so the baseline must fingerprint the bytes that
// were linted. Each run must record one count-1 fingerprint per
// finding, as a file run does; an empty context collapses the two
// img-alt findings of a document onto one count-2 fingerprint.
func TestBaselineFingerprintsLintedBytes(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, twoImgDoc)
	}))
	defer srv.Close()
	file := writeTemp(t, "two.html", twoImgDoc)

	for _, tc := range []struct {
		name  string
		stdin string
		args  []string
		want  int
	}{
		{"file", "", []string{file}, 5},
		{"stdin", twoImgDoc, []string{"-"}, 5},
		{"one URL", "", []string{"-u", srv.URL + "/a.html"}, 5},
		{"two URLs", "", []string{"-u", srv.URL + "/a.html", srv.URL + "/b.html"}, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			basePath := filepath.Join(t.TempDir(), "b.json")
			args := append([]string{"-norc", "-baseline-write", basePath}, tc.args...)
			if code, _, stderr := runCLI(t, tc.stdin, args...); code != 0 {
				t.Fatalf("exit = %d, stderr=%q", code, stderr)
			}
			base, err := baseline.Load(basePath)
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Findings) != tc.want {
				t.Errorf("recorded %d fingerprints, want %d: %v", len(base.Findings), tc.want, base.Findings)
			}
			for fp, n := range base.Findings {
				if n != 1 {
					t.Errorf("fingerprint %s has count %d: findings collapsed onto an empty context", fp, n)
				}
			}
			// The same documents diffed against the record are clean.
			args = append([]string{"-norc", "-baseline", basePath}, tc.args...)
			if code, out, stderr := runCLI(t, tc.stdin, args...); code != 0 || out != "" {
				t.Errorf("re-run against the record: exit %d, out=%q, stderr=%q", code, out, stderr)
			}
		})
	}
}
