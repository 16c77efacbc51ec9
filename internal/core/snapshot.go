package core

import (
	"bytes"
	"maps"
	"slices"
	"unsafe"

	"weblint/internal/htmltoken"
	"weblint/internal/textpos"
	"weblint/internal/warn"
)

// This file implements checkpointing for the incremental re-lint: a
// Snapshot is a deep copy of every piece of Checker state that depends
// on the document seen so far, taken at a token boundary. A re-lint of
// an edited document restores the nearest snapshot before the edit,
// re-tokenizes forward, and — once the live state again matches an old
// snapshot beyond the edit under the position shift — splices the
// cached remainder of the original finding stream instead of linting
// the rest of the document.
//
// The state compare is by VALUE under the single-valued textpos.Shift
// mapping. That is sound because the checker consumes positions only
// by copying them into output and by order-preserving comparisons
// (guardFix's oddQuotesAt boundary test), so two runs whose state is
// value-equal under the shift behave identically on an identical
// suffix of tokens.
//
// Not captured, by design: the fields Checker declares itself rather
// than in docState.
//   - opts, spec, em, file: fixed for the session (Reset-time).
//   - slab: an allocation pool; Restore rebuilds entries on the heap
//     and truncates it, since nothing live points into it any more.
//   - attrSeen, attrSeenByName: per-tag scratch, cleared after each
//     use.
//   - relocateTok/relocateFixes: scoped to a single startTag call,
//     always nil/empty at token boundaries.

// Snapshot is a deep, immutable copy of a Checker's document-dependent
// state at a token boundary. It may be restored any number of times;
// Restore never aliases the snapshot's own storage.
type Snapshot struct {
	docState
	over warn.Overrides // the emitter's inline-directive overrides
}

func cloneOpen(o *open) *open {
	if o == nil {
		return nil
	}
	cp := *o
	if len(o.text) > 0 {
		cp.text = append([]byte(nil), o.text...)
	} else {
		cp.text = nil
	}
	return &cp
}

// copyOpens fills dst's storage with deep copies of src's entries,
// nil slots included, and returns it.
func copyOpens(dst, src []*open) []*open {
	dst = slices.Grow(dst[:0], len(src))
	for _, o := range src {
		dst = append(dst, cloneOpen(o))
	}
	return dst
}

// Snapshot deep-copies the checker's document-dependent state,
// including the emitter's inline-directive overrides. It must be called
// only at a token boundary (never from inside a token callback).
func (c *Checker) Snapshot() *Snapshot {
	s := &Snapshot{over: c.em.Overrides()}
	s.copyFrom(&c.docState)
	return s
}

// Bytes estimates the heap the snapshot holds: every stack entry with
// its text buffer, plus a word per accum index, four bytes per Sym
// slot of the chain head tables and mapEntryBytes per map entry. A
// deep page's snapshots copy its whole open stack, so the incremental
// Session spaces its checkpoints by this.
func (s *Snapshot) Bytes() int {
	const mapEntryBytes = 32 // a string header and a word of value
	n := 8*len(s.accum) + 4*(len(s.openTop)+len(s.pendingTop)) +
		mapEntryBytes*(len(s.openTopByName)+len(s.seenOnce)+len(s.ids)+
			len(s.anchors)+len(s.metaNames))
	for _, stack := range [][]*open{s.stack, s.pending} {
		n += 8 * len(stack)
		for _, o := range stack {
			if o != nil {
				n += int(unsafe.Sizeof(*o)) + cap(o.text)
			}
		}
	}
	return n
}

// restoreMap replaces dst's contents with a copy of src, reusing dst's
// storage. Returns dst (allocated if nil).
func restoreMap[V any](dst, src map[string]V) map[string]V {
	if dst == nil {
		dst = make(map[string]V, len(src))
	} else {
		clear(dst)
	}
	maps.Copy(dst, src)
	return dst
}

// Restore rewinds the checker to the snapshotted state. The snapshot
// is not consumed: stack entries are deep-copied back out, so the same
// snapshot can seed any number of re-lints. The emitter the checker
// reports through has its inline-directive overrides restored too.
// Scratch state scoped to a single token (attrSeen, relocation
// diversion) is cleared.
//
// The rebuilt stacks are the only holders of open entries, so the slab
// is recycled here as Reset recycles it: a long-lived Session restores
// once per edit, and without this the slab would grow by every element
// each re-lint window opens.
func (c *Checker) Restore(s *Snapshot) {
	c.docState.copyFrom(&s.docState)
	c.clearScratch()
	c.em.SetOverrides(s.over)
}

// openEqualShifted reports whether live open entry b (new-document
// positions) equals snapshotted entry a (old-document positions) under
// the shift. Element identity is by pointer for the spec info (both
// runs resolve through the same spec instance) and by bytes for the
// accumulated text: an element still accumulating across the edit
// window compares unequal and the caller retries at a later boundary.
func openEqualShifted(a, b *open, sh *textpos.Shift) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if a.name != b.name || a.sym != b.sym || a.display != b.display || a.info != b.info ||
		a.content != b.content || a.prevSame != b.prevSame {
		return false
	}
	line, col, ok := sh.Pos(a.line, a.col)
	if !ok || line != b.line || col != b.col {
		return false
	}
	return bytes.Equal(a.text, b.text)
}

// lineMapEqualShifted compares a snapshotted name→line map against the
// live one, shifting each snapshotted line.
func lineMapEqualShifted(snap, live map[string]int, sh *textpos.Shift) bool {
	if len(snap) != len(live) {
		return false
	}
	for k, v := range snap {
		sv, ok := sh.Line(v)
		if !ok {
			return false
		}
		lv, ok := live[k]
		if !ok || lv != sv {
			return false
		}
	}
	return true
}

// LiveEquals reports whether the checker's current state equals the
// snapshot under the position shift — i.e. whether a run that reached
// this snapshot in the old document and the live run in the edited one
// are guaranteed to behave identically on the identical remaining
// bytes. Every positional field in the snapshot must map successfully
// (ok shift) onto the live value; any unmappable position means the
// comparison is undecidable and reports false.
func (s *Snapshot) LiveEquals(c *Checker, sh *textpos.Shift) bool {
	if s.docFlags != c.docFlags || len(s.stack) != len(c.stack) || len(s.pending) != len(c.pending) {
		return false
	}
	for i := range s.stack {
		if !openEqualShifted(s.stack[i], c.stack[i], sh) {
			return false
		}
	}
	for i := range s.pending {
		if !openEqualShifted(s.pending[i], c.pending[i], sh) {
			return false
		}
	}
	if !slices.Equal(s.openTop, c.openTop) || !maps.Equal(s.openTopByName, c.openTopByName) ||
		!slices.Equal(s.pendingTop, c.pendingTop) || !slices.Equal(s.accum, c.accum) ||
		!maps.Equal(s.metaNames, c.metaNames) {
		return false
	}
	if !lineMapEqualShifted(s.seenOnce, c.seenOnce, sh) ||
		!lineMapEqualShifted(s.ids, c.ids, sh) ||
		!lineMapEqualShifted(s.anchors, c.anchors, sh) {
		return false
	}
	pos, ok := s.docPositions.shift(sh)
	return ok && pos == c.docPositions && c.em.Overrides() == s.over
}

// shift maps every position from old-document to new-document
// coordinates, reporting false when one cannot be mapped. The unset
// markers need no special case: an edit starts on a line >= 1 and at
// an offset >= 0, so Line(0) and Off(-1) always map to themselves.
func (p docPositions) shift(sh *textpos.Shift) (docPositions, bool) {
	var okL, okO, okQ, okH bool
	p.lastLine, okL = sh.Line(p.lastLine)
	p.lastOffset, okO = sh.Off(p.lastOffset)
	p.oddQuotesAt, okQ = sh.Off(p.oddQuotesAt)
	p.headInsertPos, okH = sh.Off(p.headInsertPos)
	return p, okL && okO && okQ && okH
}

// Rebase shifts every position in the snapshot (in place) from
// old-document to new-document coordinates, so a checkpoint taken
// after the edit window in the original pass stays usable for future
// edits. It reports false when any position cannot be mapped; the
// snapshot is then partially mutated and must be discarded.
func (s *Snapshot) Rebase(sh *textpos.Shift) bool {
	rebaseOpen := func(o *open) bool {
		if o == nil {
			return true
		}
		line, col, ok := sh.Pos(o.line, o.col)
		if !ok {
			return false
		}
		o.line, o.col = line, col
		return true
	}
	for _, o := range s.stack {
		if !rebaseOpen(o) {
			return false
		}
	}
	for _, o := range s.pending {
		if !rebaseOpen(o) {
			return false
		}
	}
	// When the edit left the line count unchanged, Line is the identity
	// for every line, so the per-entry rewrite of the line maps — the
	// bulk of a rebase on anchor-heavy documents — is a no-op. This is
	// the common editor case (typing within one line), so it is worth
	// short-circuiting: a 1 MiB session rebases every suffix snapshot on
	// every edit.
	if sh.LineDelta != 0 {
		rebaseLineMap := func(m map[string]int) bool {
			for k, v := range m {
				nv, ok := sh.Line(v)
				if !ok {
					return false
				}
				m[k] = nv
			}
			return true
		}
		if !rebaseLineMap(s.seenOnce) || !rebaseLineMap(s.ids) || !rebaseLineMap(s.anchors) {
			return false
		}
	}
	pos, ok := s.docPositions.shift(sh)
	s.docPositions = pos
	return ok
}

// Step feeds one token to the checker, for streaming drivers that
// checkpoint between tokens (the incremental lint Session). The token
// is passed by pointer, so it is not copied.
func (c *Checker) Step(tok *htmltoken.Token) { c.token(tok) }
