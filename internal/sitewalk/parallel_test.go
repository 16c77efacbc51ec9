package sitewalk

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"weblint/internal/corpus"
	"weblint/internal/lint"
	"weblint/internal/plugin"
)

// TestParallelEquivalence is the engine's contract applied to the
// site walker: for any worker count the Report must be deeply equal
// to the sequential walk's — same pages, same messages in the same
// order, same external URL set.
func TestParallelEquivalence(t *testing.T) {
	pages := corpus.GenerateSite(corpus.SiteConfig{
		Seed: 5, Pages: 30, Orphans: 2, BrokenLinks: 3, Subdirs: 3,
		Errors: corpus.ErrorRates{Overlap: 0.3, DropClose: 0.2},
	})
	root := writeSite(t, pages)
	l := lint.MustNew(lint.Options{})

	seq, err := Walk(root, Options{Linter: l, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.Pages) != 30 {
		t.Fatalf("sequential walk found %d pages", len(seq.Pages))
	}

	// 0 must resolve to GOMAXPROCS, not to a single worker.
	for _, workers := range []int{0, 2, 8, 64} {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			par, err := Walk(root, Options{Linter: l, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(seq.Pages, par.Pages) {
				t.Error("Pages differ")
			}
			if !reflect.DeepEqual(seq.External, par.External) {
				t.Error("External differs")
			}
			if !reflect.DeepEqual(seq.Messages, par.Messages) {
				if len(seq.Messages) != len(par.Messages) {
					t.Fatalf("message counts differ: sequential %d, parallel %d",
						len(seq.Messages), len(par.Messages))
				}
				for i := range seq.Messages {
					if seq.Messages[i] != par.Messages[i] {
						t.Fatalf("message %d differs:\n  seq: %+v\n  par: %+v",
							i, seq.Messages[i], par.Messages[i])
					}
				}
			}
		})
	}
}

// TestParallelWalkError checks an unreadable page fails the walk with
// the same error a sequential walk reports, without wedging the pool.
func TestParallelWalkError(t *testing.T) {
	pages := corpus.GenerateSite(corpus.SiteConfig{Seed: 9, Pages: 10})
	root := writeSite(t, pages)
	// A dangling symlink with an .html extension is discovered by the
	// walk but cannot be opened.
	bad := filepath.Join(root, "broken.html")
	if err := os.Symlink(filepath.Join(root, "does-not-exist"), bad); err != nil {
		t.Skipf("symlink: %v", err)
	}

	for _, workers := range []int{1, 8} {
		_, err := Walk(root, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: walk of site with unreadable page succeeded", workers)
		}
	}
}

// panicChecker is a content plugin that panics, standing in for a
// poisoned page or a buggy plugin.
type panicChecker struct{}

func (panicChecker) Name() string       { return "panic" }
func (panicChecker) Elements() []string { return []string{"style"} }
func (panicChecker) Check(string, int, plugin.Report) {
	panic("boom")
}

// TestWalkContainsCheckPanic: a check that panics on one page fails
// the walk with an error naming that page, as the same panic fails an
// engine job, instead of crashing the process from a worker goroutine.
func TestWalkContainsCheckPanic(t *testing.T) {
	root := writeSite(t, map[string]string{
		"index.html":   `<HTML><HEAD><TITLE>i</TITLE></HEAD><BODY><A HREF="sub/bad.html">b</A></BODY></HTML>`,
		"sub/bad.html": `<HTML><HEAD><STYLE>p{}</STYLE><TITLE>b</TITLE></HEAD><BODY>x</BODY></HTML>`,
	})
	l := lint.MustNew(lint.Options{Plugins: []plugin.ContentChecker{panicChecker{}}})
	for _, workers := range []int{1, 4} {
		_, err := Walk(root, Options{Linter: l, Workers: workers})
		if err == nil || !strings.Contains(err.Error(), "sub/bad.html") || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("workers=%d: walk error = %v, want the panic in sub/bad.html", workers, err)
		}
	}
}
