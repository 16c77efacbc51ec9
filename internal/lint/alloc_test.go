package lint

import (
	"context"
	"strings"
	"testing"

	"weblint/internal/corpus"
	"weblint/internal/warn"
)

// TestCheckAllocsFlatInSuppressed: a check allocates no more for a
// page with four times as many suppressed emissions. physical-font is
// off by default and takes two string arguments, so every <B> is one
// suppressed emission; its arguments must stay on the caller's stack.
func TestCheckAllocsFlatInSuppressed(t *testing.T) {
	l := MustNew(Options{})
	allocs := func(runs int) float64 {
		src := []byte("<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0 Transitional//EN\">\n" +
			"<HTML>\n<HEAD>\n<TITLE>Clean page</TITLE>\n</HEAD>\n<BODY>\n" +
			strings.Repeat("<P><B>x</B></P>\n", runs) + "</BODY>\n</HTML>\n")
		var rec warn.Recorder
		l.Check(context.Background(), "p.html", src, &rec)
		if n := strings.Count(strings.Join(rec.SuppressedIDs, " "), "physical-font"); len(rec.Messages) != 0 || n != runs {
			t.Fatalf("%d runs: %d findings and %d physical-font suppressions, want 0 and %d",
				runs, len(rec.Messages), n, runs)
		}
		// Many runs average out the pooled check bundles the race
		// detector's sync.Pool drops at random.
		return testing.AllocsPerRun(100, func() {
			if err := l.Check(context.Background(), "p.html", src, &warn.Collector{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(64), allocs(256); large-small >= 16 {
		t.Errorf("a check allocates %.0f times with 64 suppressed emissions but %.0f with 256", small, large)
	}
}

// TestSessionMessagesAllocsFlat: Messages copies recorded findings, so
// a pull allocates as often for a page with four times the findings.
func TestSessionMessagesAllocsFlat(t *testing.T) {
	l := MustNew(Options{})
	allocs := func(size int) (float64, int) {
		s := NewSession(l, "p.html", corpus.GenerateSized(3, size, corpus.Uniform(0.05)))
		return testing.AllocsPerRun(5, func() { s.Messages() }), len(s.events)
	}
	small, nSmall := allocs(64 << 10)
	large, nLarge := allocs(256 << 10)
	if nLarge <= nSmall {
		t.Fatalf("the 256 KiB page has %d findings, the 64 KiB page %d", nLarge, nSmall)
	}
	if large > small {
		t.Errorf("Messages allocates %.0f times for %d findings but %.0f for %d", small, nSmall, large, nLarge)
	}
}
