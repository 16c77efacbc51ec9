package sitewalk

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"weblint/internal/engine"
	"weblint/internal/warn"
)

// buildSinkSite writes a small site with page-level findings, a broken
// fragment, a directory without an index, and an orphan page.
func buildSinkSite(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	pages := map[string]string{
		"index.html": `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY>
<A HREF="a.html#nowhere">a</A><IMG SRC="x.gif"></BODY></HTML>`,
		"a.html":            `<HTML><HEAD><TITLE>a</TITLE></HEAD><BODY><P>a</P></BODY></HTML>`,
		"orphan.html":       `<HTML><HEAD><TITLE>o</TITLE></HEAD><BODY><P>o</P></BODY></HTML>`,
		"sub/noindex.html":  `<HTML><HEAD><TITLE>n</TITLE></HEAD><BODY><P>n</P></BODY></HTML>`,
		"sub/noindex2.html": `<HTML><HEAD><TITLE>n</TITLE></HEAD><BODY><P>n</P></BODY></HTML>`,
	}
	for rel, src := range pages {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// siteLevel reports whether id is one of the site-level checks, which
// stay in Report.Messages when Options.Page takes the pages.
func siteLevel(id string) bool {
	return id == "bad-fragment" || id == "no-index-file" || id == "orphan-page"
}

// TestWalkSinkMatchesReport: a walk streaming its pages through
// Options.Page delivers, followed by the site-level messages it leaves
// in Report.Messages, exactly the Report.Messages stream of a walk
// without it, for sequential and parallel walks. Each page's result
// carries its root-relative name and the bytes it was linted from.
func TestWalkSinkMatchesReport(t *testing.T) {
	root := buildSinkSite(t)
	want, err := Walk(root, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Messages) == 0 {
		t.Fatal("fixture site produced no messages")
	}

	for _, workers := range []int{1, 4} {
		var got []warn.Message
		var names []string
		rep, err := Walk(root, Options{Workers: workers, Page: func(r engine.Result) bool {
			src, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(r.Name)))
			if err != nil || !bytes.Equal(r.Src, src) {
				t.Errorf("workers=%d: %s: Src is not the page on disk (%v)", workers, r.Name, err)
			}
			names = append(names, r.Name)
			got = append(got, r.Messages...)
			return true
		}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for _, m := range rep.Messages {
			if !siteLevel(m.ID) {
				t.Errorf("workers=%d: Report.Messages kept page message %+v while streaming", workers, m)
			}
		}
		got = append(got, rep.Messages...)
		if !reflect.DeepEqual(got, want.Messages) {
			t.Errorf("workers=%d: streamed walk differs from Report\n got %+v\nwant %+v", workers, got, want.Messages)
		}
		if !reflect.DeepEqual(names, want.Pages) || !reflect.DeepEqual(rep.Pages, want.Pages) {
			t.Errorf("workers=%d: pages %v, want %v", workers, names, want.Pages)
		}
	}
}

// TestWalkSinkCancel: Page returning false stops the walk without
// error, before the remaining pages and the site-level checks.
func TestWalkSinkCancel(t *testing.T) {
	root := buildSinkSite(t)
	n := 0
	rep, err := Walk(root, Options{Page: func(engine.Result) bool {
		n++
		return false
	}})
	if err != nil {
		t.Fatalf("cancelled walk errored: %v", err)
	}
	if n != 1 {
		t.Errorf("Page saw %d pages after cancelling at the first", n)
	}
	if rep == nil || !rep.Cancelled || len(rep.Messages) != 0 {
		t.Errorf("cancelled walk must return a report with Cancelled set and no messages, got %+v", rep)
	}
}
