package core

import (
	"fmt"
	"strings"
	"testing"

	"weblint/internal/htmltoken"
	"weblint/internal/textpos"
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

// snapshotsAt steps a fresh checker through src token by token and
// returns a snapshot at every token boundary, keyed by byte offset.
func snapshotsAt(src string) map[int]*Snapshot {
	c := New(warn.NewEmitter(nil), Options{Filename: "t.html"})
	tz := htmltoken.New(src)
	snaps := map[int]*Snapshot{}
	var tok htmltoken.Token
	for tz.NextInto(&tok) {
		c.Step(&tok)
		if !tz.InRawText() {
			snaps[tz.Pos()] = c.Snapshot()
		}
	}
	return snaps
}

// TestSnapshotLiveEqualsAndRebase: after an edit that leaves the
// checker's state unchanged past it, a snapshot of the original pass
// equals the live state of a pass over the edited document at the
// matching boundary under the edit's shift, and nowhere under a wrong
// shift. Rebasing it onto the edited document gives exactly that live
// state under the identity shift.
func TestSnapshotLiveEqualsAndRebase(t *testing.T) {
	var b strings.Builder
	b.WriteString("<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&b, "<H2><A NAME=\"s%d\">s</A></H2>\n<P ID=\"p%d\">text <B>bold</P>\n", i, i)
	}
	b.WriteString("</BODY></HTML>\n")
	old := b.String()
	at := strings.Index(old, "<H2>")
	const ins = "<P>inserted\nparagraph</P>\n"
	edited := old[:at] + ins + old[at:]

	oldSnaps := snapshotsAt(old)
	c := New(warn.NewEmitter(nil), Options{Filename: "t.html"})
	oldIx, newIx := textpos.NewLF(old), textpos.NewLF(edited)
	sh := textpos.NewShift(oldIx, newIx, at, at, ins)
	wrong := textpos.NewShift(oldIx, newIx, at, at, ins+"\n")
	identity := textpos.NewShift(newIx, newIx, 0, 0, "")

	tz := htmltoken.New(edited)
	var tok htmltoken.Token
	matched := 0
	for tz.NextInto(&tok) {
		c.Step(&tok)
		pos := tz.Pos()
		snap := oldSnaps[pos-len(ins)]
		if pos <= at+len(ins) || snap == nil {
			continue
		}
		if snap.LiveEquals(c, wrong) {
			t.Fatalf("boundary %d: snapshot equals the live state under a wrong shift", pos)
		}
		if !snap.LiveEquals(c, sh) {
			continue
		}
		matched++
		if !snap.Rebase(sh) || !snap.LiveEquals(c, identity) {
			t.Fatalf("boundary %d: rebased snapshot differs from the live state", pos)
		}
	}
	if matched < 40 {
		t.Fatalf("snapshot matched the live state at only %d boundaries past the edit", matched)
	}
}
