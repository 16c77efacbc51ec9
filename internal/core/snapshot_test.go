package core

import (
	"fmt"
	"strings"
	"testing"

	"weblint/internal/htmltoken"
	"weblint/internal/warn"
)

// TestRestoreRecyclesSlab: an incremental Session restores a snapshot
// and re-lints a window once per edit, for as long as the document is
// open. Each cycle must reuse the slab entries the last one handed
// out, not append fresh ones: the slab's capacity stays within 2x of
// what one pass over the document needs.
func TestRestoreRecyclesSlab(t *testing.T) {
	var b strings.Builder
	b.WriteString("<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\n")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "<P>paragraph <B>%d</B> <A HREF=\"%d.html\">link</A></P>\n", i, i)
	}
	b.WriteString("</BODY></HTML>\n")
	src := b.String()

	em := warn.NewEmitter(nil)
	c := New(em, Options{Filename: "t.html"})
	snap := c.Snapshot()
	tz := htmltoken.New(src)
	c.Run(tz)
	first := cap(c.slab)

	for cycle := 0; cycle < 50; cycle++ {
		c.Restore(snap)
		tz.Reset(src)
		c.Run(tz)
	}
	if got := cap(c.slab); got > 2*first {
		t.Fatalf("slab capacity grew from %d to %d over 50 restore cycles", first, got)
	}
}
