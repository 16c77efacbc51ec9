package main

import (
	"bytes"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"weblint/internal/baseline"
)

// walkSitePage has two img-alt findings in distinct contexts: with
// proper context extraction they record as two fingerprints; resolved
// with an empty context (the pre-fix behaviour whenever the walk root
// was not the working directory) they collapse onto one.
const walkSitePage = `<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.0//EN">
<HTML><HEAD><TITLE>t</TITLE>
<META NAME="description" CONTENT="d"><META NAME="keywords" CONTENT="k">
</HEAD>
<BODY>
%s<P>first illustration <IMG SRC="one.gif"> here
<P>second illustration <IMG SRC="two.gif"> there
</BODY></HTML>
`

// writeWalkSite builds a two-page site whose only findings are four
// img-alt warnings (two per page, each in a distinct context). The
// image targets exist so bad-link stays quiet, the sub page is an
// index file reached from the root page so the site-level
// no-index-file and orphan-page checks stay quiet too.
func writeWalkSite(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	root := strings.Replace(walkSitePage, "%s", "<P>see the <A HREF=\"sub/\">sub site</A>\n", 1)
	sub := strings.Replace(walkSitePage, "%s", "", 1)
	files := map[string]string{
		"index.html":     root,
		"sub/index.html": sub,
		"one.gif":        "gif",
		"two.gif":        "gif",
		"sub/one.gif":    "gif",
		"sub/two.gif":    "gif",
	}
	for path, body := range files {
		if err := os.WriteFile(filepath.Join(dir, filepath.FromSlash(path)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestWalkBaselineRecordsStrongFingerprints: -baseline-write on a -R
// walk, run from outside the site root, must resolve each page's text
// for context extraction. The tell is fingerprint granularity: two
// same-rule findings in one page stay distinct (count 1 each) instead
// of collapsing onto a single context-free fingerprint (count 2).
func TestWalkBaselineRecordsStrongFingerprints(t *testing.T) {
	site := writeWalkSite(t)
	basePath := filepath.Join(t.TempDir(), "site-baseline.json")

	code, _, stderr := runCLI(t, "", "-norc", "-R", "-baseline-write", basePath, site)
	if code != 0 {
		t.Fatalf("walk baseline-write exit = %d, stderr=%q", code, stderr)
	}

	base, err := baseline.Load(basePath)
	if err != nil {
		t.Fatal(err)
	}
	// Two pages × two img-alt findings, all in distinct contexts.
	if len(base.Findings) != 4 {
		t.Fatalf("recorded %d fingerprints, want 4 distinct: %v", len(base.Findings), base.Findings)
	}
	for fp, n := range base.Findings {
		if n != 1 {
			t.Fatalf("fingerprint %s has count %d: findings collapsed, context extraction failed", fp, n)
		}
	}
}

// TestWalkBaselineDiffCycle: the full CI loop over a site walk —
// record, clean re-run, then a regression fails with only the new
// finding reported.
func TestWalkBaselineDiffCycle(t *testing.T) {
	site := writeWalkSite(t)
	basePath := filepath.Join(t.TempDir(), "site-baseline.json")

	if code, _, stderr := runCLI(t, "", "-norc", "-R", "-baseline-write", basePath, site); code != 0 {
		t.Fatalf("record exit = %d, stderr=%q", code, stderr)
	}

	code, out, stderr := runCLI(t, "", "-norc", "-R", "-baseline", basePath, site)
	if code != 0 {
		t.Fatalf("unchanged site exit = %d, stderr=%q out=%q", code, stderr, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("unchanged site rendered output:\n%s", out)
	}

	// Inject one new finding into the subdirectory page.
	sub := strings.Replace(walkSitePage, "%s", "", 1)
	injected := strings.Replace(sub, "</BODY>",
		"<P>third illustration <IMG SRC=\"three.gif\"> everywhere\n</BODY>", 1)
	for path, body := range map[string]string{"sub/index.html": injected, "sub/three.gif": "gif"} {
		if err := os.WriteFile(filepath.Join(site, filepath.FromSlash(path)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	code, out, _ = runCLI(t, "", "-norc", "-R", "-t", "-baseline", basePath, site)
	if code != 1 {
		t.Fatalf("regressed site exit = %d, want 1; out=%q", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "img-alt") {
		t.Errorf("want exactly the one new img-alt finding, got:\n%s", out)
	}
}

// TestWalkBaselineUpdateCycle: record -> pay down one finding ->
// -baseline-update prunes its allowance -> reintroducing the finding
// now fails. The prune is what keeps a baseline honest: without it the
// fixed finding's fingerprint would linger and cover a regression.
func TestWalkBaselineUpdateCycle(t *testing.T) {
	site := writeWalkSite(t)
	basePath := filepath.Join(t.TempDir(), "site-baseline.json")

	if code, _, stderr := runCLI(t, "", "-norc", "-R", "-baseline-write", basePath, site); code != 0 {
		t.Fatalf("record exit = %d, stderr=%q", code, stderr)
	}

	// Pay down one finding: give the sub page's first image an ALT.
	sub := strings.Replace(walkSitePage, "%s", "", 1)
	fixed := strings.Replace(sub, `<IMG SRC="one.gif">`, `<IMG SRC="one.gif" ALT="one">`, 1)
	subPath := filepath.Join(site, "sub", "index.html")
	if err := os.WriteFile(subPath, []byte(fixed), 0o644); err != nil {
		t.Fatal(err)
	}

	// The update run is clean (everything still owed is covered) and
	// rewrites the baseline with only the fingerprints it matched.
	code, out, stderr := runCLI(t, "", "-norc", "-R", "-baseline-update", basePath, site)
	if code != 0 {
		t.Fatalf("update exit = %d, stderr=%q out=%q", code, stderr, out)
	}
	if strings.TrimSpace(out) != "" {
		t.Errorf("clean update run rendered output:\n%s", out)
	}
	base, err := baseline.Load(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if base.Total() != 3 {
		t.Fatalf("pruned baseline covers %d findings, want 3: %v", base.Total(), base.Findings)
	}

	// Reintroduce the fixed finding: the pruned baseline must not cover
	// it any more.
	if err := os.WriteFile(subPath, []byte(sub), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = runCLI(t, "", "-norc", "-R", "-t", "-baseline", basePath, site)
	if code != 1 {
		t.Fatalf("reintroduced finding exit = %d, want 1; out=%q", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], "img-alt") {
		t.Errorf("want exactly the reintroduced img-alt finding, got:\n%s", out)
	}
}

// The two pages of the working-directory tests: a/site/page.html and a
// different a/page.html with the same root-relative name. Looking a
// walked page up by name from a/ would find the wrong one.
const (
	inSitePage  = "<HTML>\n<P>x</P>\n<IMG SRC=\"a.gif\">\n<IMG SRC=\"b.gif\">\n</HTML>\n"
	outSidePage = "<HTML>\n<IMG SRC=\"a.gif\">\n</HTML>\n"
)

// writeNestedSite writes a/site/page.html and a/page.html under a temp
// directory and returns a.
func writeNestedSite(t *testing.T) string {
	t.Helper()
	a := t.TempDir()
	if err := os.MkdirAll(filepath.Join(a, "site"), 0o755); err != nil {
		t.Fatal(err)
	}
	for path, body := range map[string]string{"site/page.html": inSitePage, "page.html": outSidePage} {
		if err := os.WriteFile(filepath.Join(a, filepath.FromSlash(path)), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// recordIn runs weblint with args from dir and returns the baseline it
// wrote to a fresh file.
func recordIn(t *testing.T, dir string, args ...string) []byte {
	t.Helper()
	t.Chdir(dir)
	basePath := filepath.Join(t.TempDir(), "b.json")
	args = append([]string{"-norc", "-R", "-baseline-write", basePath}, args...)
	if code, _, stderr := runCLI(t, "", args...); code != 0 {
		t.Fatalf("record %v in %s: exit = %d, stderr=%q", args, dir, code, stderr)
	}
	data, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestWalkBaselineIgnoresWorkingDirectory: a -R baseline fingerprints
// each page's own bytes, so recording the site from inside it and from
// its parent, where a different page.html sits, writes the same file,
// and either record diffs clean from the other directory.
func TestWalkBaselineIgnoresWorkingDirectory(t *testing.T) {
	a := writeNestedSite(t)
	site := filepath.Join(a, "site")
	inside := recordIn(t, site, ".")
	outside := recordIn(t, a, "site")
	if !bytes.Equal(inside, outside) {
		t.Fatalf("baseline recorded in the site differs from the one recorded in its parent:\n%s\nvs\n%s", inside, outside)
	}
	for _, tc := range []struct{ record, dir, arg string }{
		{"inside", a, "site"},
		{"outside", site, "."},
	} {
		basePath := filepath.Join(t.TempDir(), "b.json")
		if err := os.WriteFile(basePath, inside, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Chdir(tc.dir)
		code, out, stderr := runCLI(t, "", "-norc", "-R", "-baseline", basePath, tc.arg)
		if code != 0 || out != "" {
			t.Errorf("record made %s, diffed from %s: exit %d, out=%q, stderr=%q", tc.record, tc.dir, code, out, stderr)
		}
	}
}

// TestWalkBaselineMixedList: a file and a walked page with the same
// name each fingerprint against their own bytes. Recording page.html
// and site/ together writes exactly the fingerprints of page.html
// alone plus those of the in-site walk.
func TestWalkBaselineMixedList(t *testing.T) {
	a := writeNestedSite(t)
	want := map[string]int{}
	for _, data := range [][]byte{recordIn(t, a, "page.html"), recordIn(t, filepath.Join(a, "site"), ".")} {
		base, err := baseline.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		for fp, n := range base.Findings {
			want[fp] += n
		}
	}
	got, err := baseline.Parse(recordIn(t, a, "page.html", "site"))
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(got.Findings, want) {
		t.Errorf("mixed list recorded %v, want %v", got.Findings, want)
	}
}
