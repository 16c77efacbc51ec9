package sitewalk

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"weblint/internal/corpus"
	"weblint/internal/warn"
)

// writeSite materialises a generated site into a temp directory.
func writeSite(t *testing.T, pages map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for rel, content := range pages {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func countID(msgs []warn.Message, id string) int {
	n := 0
	for _, m := range msgs {
		if m.ID == id {
			n++
		}
	}
	return n
}

// TestE8SiteRecursion is experiment E8: the -R switch checks a whole
// site, reporting directories without index files and orphan pages.
func TestE8SiteRecursion(t *testing.T) {
	pages := corpus.GenerateSite(corpus.SiteConfig{
		Seed: 42, Pages: 15, Orphans: 2, BrokenLinks: 3, Subdirs: 2,
	})
	root := writeSite(t, pages)

	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pages) != 15 {
		t.Errorf("pages found = %d, want 15", len(rep.Pages))
	}
	if got := countID(rep.Messages, "orphan-page"); got != 2 {
		t.Errorf("orphan-page count = %d, want 2", got)
	}
	// Three distinct missing targets were planted; each may be
	// referenced more than once within its page.
	distinct := map[string]bool{}
	for _, m := range rep.Messages {
		if m.ID == "bad-link" {
			distinct[m.Text] = true
		}
	}
	if len(distinct) != 3 {
		t.Errorf("distinct bad-link targets = %d, want 3: %v", len(distinct), distinct)
	}
	// sub1 has pages but no index file; sub0 has one; the root has
	// index.html.
	if got := countID(rep.Messages, "no-index-file"); got != 1 {
		for _, m := range rep.Messages {
			if m.ID == "no-index-file" {
				t.Logf("  %s", m.Text)
			}
		}
		t.Errorf("no-index-file count = %d, want 1", got)
	}
}

func TestCleanSiteIsQuiet(t *testing.T) {
	pages := corpus.GenerateSite(corpus.SiteConfig{Seed: 7, Pages: 8, Orphans: 0, Subdirs: 1})
	root := writeSite(t, pages)
	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"orphan-page", "bad-link"} {
		if n := countID(rep.Messages, id); n != 0 {
			for _, m := range rep.Messages {
				if m.ID == id {
					t.Logf("  %s: %s", m.File, m.Text)
				}
			}
			t.Errorf("%s count = %d on clean site", id, n)
		}
	}
}

func TestPerPageLintMessagesIncluded(t *testing.T) {
	pages := map[string]string{
		"index.html": "<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><A HREF=\"/bad.html\">x</A></BODY></HTML>",
	}
	root := writeSite(t, pages)
	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if countID(rep.Messages, "doctype-first") != 1 {
		t.Error("per-page lint messages missing")
	}
	if countID(rep.Messages, "bad-link") != 1 {
		t.Error("broken absolute link not reported")
	}
}

func TestRelativeLinkResolution(t *testing.T) {
	pages := map[string]string{
		"index.html":     `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><A HREF="sub/a.html">a</A></BODY></HTML>`,
		"sub/a.html":     `<HTML><HEAD><TITLE>a</TITLE></HEAD><BODY><A HREF="../index.html">up</A><A HREF="b.html">sib</A></BODY></HTML>`,
		"sub/b.html":     `<HTML><HEAD><TITLE>b</TITLE></HEAD><BODY><A HREF="/index.html">root</A></BODY></HTML>`,
		"sub/index.html": `<HTML><HEAD><TITLE>si</TITLE></HEAD><BODY><A HREF="a.html">a</A></BODY></HTML>`,
	}
	root := writeSite(t, pages)
	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := countID(rep.Messages, "bad-link"); n != 0 {
		t.Errorf("bad-link count = %d on fully linked site", n)
	}
	if n := countID(rep.Messages, "orphan-page"); n != 0 {
		for _, m := range rep.Messages {
			if m.ID == "orphan-page" {
				t.Logf("  %s", m.Text)
			}
		}
		t.Errorf("orphan-page count = %d, want 0", n)
	}
}

// TestEscapedLinks: a link's %XX escapes are decoded before it is
// matched against files and anchors, as a browser decodes them; a
// malformed escape keeps its raw text, and bad-link quotes the link as
// written.
func TestEscapedLinks(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY>` +
			`<A HREF="my%20page.html#two%20words">sp</A><A HREF="bad%zz.html">bad</A>` +
			`<A NAME="top here">t</A><A HREF="#top%20here">top</A></BODY></HTML>`,
		"my page.html": `<HTML><HEAD><TITLE>m</TITLE></HEAD><BODY><A NAME="two words">t</A></BODY></HTML>`,
	}
	rep, err := Walk(writeSite(t, pages), Options{})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range rep.Messages {
		if m.ID == "bad-link" || m.ID == "orphan-page" || m.ID == "bad-fragment" {
			got = append(got, m.ID+": "+m.Text)
		}
	}
	want := []string{`bad-link: target for anchor "bad%zz.html" not found`}
	if !slices.Equal(got, want) {
		t.Errorf("site messages = %q, want %q", got, want)
	}
}

func TestFragmentAndQueryLinks(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY>` +
			`<A HREF="a.html#sec">frag</A><A HREF="a.html?x=1">query</A><A HREF="#local">local</A></BODY></HTML>`,
		"a.html": `<HTML><HEAD><TITLE>a</TITLE></HEAD><BODY><A HREF="/index.html">r</A></BODY></HTML>`,
	}
	root := writeSite(t, pages)
	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := countID(rep.Messages, "bad-link"); n != 0 {
		t.Errorf("fragment/query links misresolved: %d bad-link", n)
	}
}

func TestFragmentAnchorValidation(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY>` +
			`<A HREF="a.html#exists">good</A>` +
			`<A HREF="a.html#missing">bad</A>` +
			`<A HREF="#local-missing">bad local</A>` +
			`<A NAME="top">top</A><A HREF="#top">good local</A></BODY></HTML>`,
		"a.html": `<HTML><HEAD><TITLE>a</TITLE></HEAD><BODY>` +
			`<A NAME="exists">sec</A><A HREF="/index.html">r</A></BODY></HTML>`,
	}
	root := writeSite(t, pages)
	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var frags []string
	for _, m := range rep.Messages {
		if m.ID == "bad-fragment" {
			frags = append(frags, m.Text)
		}
	}
	if len(frags) != 2 {
		t.Fatalf("bad-fragment count = %d, want 2: %v", len(frags), frags)
	}
}

func TestFragmentViaIDAttribute(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY>` +
			`<A HREF="a.html#sec2">x</A></BODY></HTML>`,
		"a.html": `<HTML><HEAD><TITLE>a</TITLE></HEAD><BODY>` +
			`<P ID="sec2">target</P><A HREF="/index.html">r</A></BODY></HTML>`,
	}
	root := writeSite(t, pages)
	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := countID(rep.Messages, "bad-fragment"); n != 0 {
		t.Errorf("ID-defined anchor flagged: %d", n)
	}
}

func TestDirectoryLinkResolvesThroughIndex(t *testing.T) {
	pages := map[string]string{
		"index.html":     `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><A HREF="sub/">dir</A></BODY></HTML>`,
		"sub/index.html": `<HTML><HEAD><TITLE>s</TITLE></HEAD><BODY><A HREF="/index.html">r</A></BODY></HTML>`,
	}
	root := writeSite(t, pages)
	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := countID(rep.Messages, "bad-link"); n != 0 {
		t.Errorf("directory link flagged: %d", n)
	}
}

func TestExternalLinksCollected(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY>` +
			`<A HREF="http://a.example/">a</A><A HREF="http://b.example/">b</A>` +
			`<A HREF="http://a.example/">dup</A></BODY></HTML>`,
	}
	root := writeSite(t, pages)
	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.External) != 2 {
		t.Errorf("external = %v", rep.External)
	}
}

func TestNonHTMLFilesIgnored(t *testing.T) {
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><IMG SRC="logo.gif" ALT="l" WIDTH="1" HEIGHT="1"></BODY></HTML>`,
		"logo.gif":   "GIF89a...",
		"notes.txt":  "not html",
	}
	root := writeSite(t, pages)
	rep, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pages) != 1 {
		t.Errorf("pages = %v", rep.Pages)
	}
	// The local image exists, so no bad-link.
	if countID(rep.Messages, "bad-link") != 0 {
		t.Error("existing local image flagged")
	}
}
