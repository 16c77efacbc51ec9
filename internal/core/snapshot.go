package core

import (
	"bytes"
	"maps"
	"slices"

	"weblint/internal/htmltoken"
	"weblint/internal/textpos"
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
// Not captured, by design:
//   - opts, spec, em wiring, file: fixed for the session (Reset-time).
//   - slab: an allocation pool; Restore rebuilds entries on the heap
//     and truncates it, since nothing live points into it any more.
//   - attrSeen: per-tag scratch, cleared at each use.
//   - relocateTok/relocateFixes: scoped to a single startTag call,
//     always nil/empty at token boundaries.

// Snapshot is a deep, immutable copy of a Checker's document-dependent
// state at a token boundary. It may be restored any number of times;
// Restore never aliases the snapshot's own storage.
type Snapshot struct {
	stack   []*open
	pending []*open // nil slots = resolved entries, order preserved

	openTop    map[string]int
	pendingTop map[string]int
	accum      []int

	firstElement bool
	doctypeSeen  bool

	seenOnce map[string]int // values are lines

	seenHTML  bool
	seenHead  bool
	seenBody  bool
	seenTitle bool
	titleLine int // line (0 = unset)

	seenFrameset bool
	seenNoframes bool

	headContent bool

	lastHeading     int // heading level, not a position
	lastHeadingName string

	ids     map[string]int // values are lines
	anchors map[string]int // values are lines

	metaNames map[string]bool

	lastLine         int // line
	lastOffset       int // byte offset
	lastUnterminated bool
	oddQuotesAt      int // byte offset, -1 = unset
	headInsertPos    int // byte offset, -1 = unset
	pendingRawText   bool

	overlay map[string]bool // emitter inline-directive overlay
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

func cloneOpens(src []*open) []*open {
	if len(src) == 0 {
		return nil
	}
	out := make([]*open, len(src))
	for i, o := range src {
		out[i] = cloneOpen(o)
	}
	return out
}

// Snapshot deep-copies the checker's document-dependent state,
// including the emitter's inline-directive overlay. It must be called
// only at a token boundary (never from inside a token callback).
func (c *Checker) Snapshot() *Snapshot {
	return &Snapshot{
		stack:   cloneOpens(c.stack),
		pending: cloneOpens(c.pending),

		openTop:    maps.Clone(c.openTop),
		pendingTop: maps.Clone(c.pendingTop),
		accum:      slices.Clone(c.accum),

		firstElement: c.firstElement,
		doctypeSeen:  c.doctypeSeen,

		seenOnce: maps.Clone(c.seenOnce),

		seenHTML:  c.seenHTML,
		seenHead:  c.seenHead,
		seenBody:  c.seenBody,
		seenTitle: c.seenTitle,
		titleLine: c.titleLine,

		seenFrameset: c.seenFrameset,
		seenNoframes: c.seenNoframes,

		headContent: c.headContent,

		lastHeading:     c.lastHeading,
		lastHeadingName: c.lastHeadingName,

		ids:     maps.Clone(c.ids),
		anchors: maps.Clone(c.anchors),

		metaNames: maps.Clone(c.metaNames),

		lastLine:         c.lastLine,
		lastOffset:       c.lastOffset,
		lastUnterminated: c.lastUnterminated,
		oddQuotesAt:      c.oddQuotesAt,
		headInsertPos:    c.headInsertPos,
		pendingRawText:   c.pendingRawText,

		overlay: c.em.CloneOverlay(),
	}
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
// reports through has its inline-directive overlay restored too.
// Scratch state scoped to a single token (attrSeen, relocation
// diversion) is cleared.
//
// The rebuilt stacks are the only holders of open entries, so the slab
// is recycled here as Reset recycles it: a long-lived Session restores
// once per edit, and without this the slab would grow by every element
// each re-lint window opens.
func (c *Checker) Restore(s *Snapshot) {
	c.stack = append(c.stack[:0], cloneOpens(s.stack)...)
	c.pending = append(c.pending[:0], cloneOpens(s.pending)...)
	c.slab = c.slab[:0]
	c.openTop = restoreMap(c.openTop, s.openTop)
	c.pendingTop = restoreMap(c.pendingTop, s.pendingTop)
	c.accum = append(c.accum[:0], s.accum...)

	c.firstElement = s.firstElement
	c.doctypeSeen = s.doctypeSeen
	c.seenOnce = restoreMap(c.seenOnce, s.seenOnce)
	c.seenHTML = s.seenHTML
	c.seenHead = s.seenHead
	c.seenBody = s.seenBody
	c.seenTitle = s.seenTitle
	c.titleLine = s.titleLine
	c.seenFrameset = s.seenFrameset
	c.seenNoframes = s.seenNoframes
	c.headContent = s.headContent
	c.lastHeading = s.lastHeading
	c.lastHeadingName = s.lastHeadingName
	c.ids = restoreMap(c.ids, s.ids)
	c.anchors = restoreMap(c.anchors, s.anchors)
	c.metaNames = restoreMap(c.metaNames, s.metaNames)

	c.lastLine = s.lastLine
	c.lastOffset = s.lastOffset
	c.lastUnterminated = s.lastUnterminated
	c.oddQuotesAt = s.oddQuotesAt
	c.headInsertPos = s.headInsertPos
	c.pendingRawText = s.pendingRawText

	clear(c.attrSeen)
	c.relocateTok = nil
	c.relocateFixes = c.relocateFixes[:0]

	c.em.RestoreOverlay(s.overlay)
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
	if a.name != b.name || a.display != b.display || a.info != b.info ||
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

// offEqualShifted compares a byte-offset field with a -1 "unset"
// sentinel passed through unshifted.
func offEqualShifted(snap, live int, sh *textpos.Shift) bool {
	if snap < 0 || live < 0 {
		return snap == live
	}
	sv, ok := sh.Off(snap)
	return ok && sv == live
}

// LiveEquals reports whether the checker's current state equals the
// snapshot under the position shift — i.e. whether a run that reached
// this snapshot in the old document and the live run in the edited one
// are guaranteed to behave identically on the identical remaining
// bytes. Every positional field in the snapshot must map successfully
// (ok shift) onto the live value; any unmappable position means the
// comparison is undecidable and reports false.
func (s *Snapshot) LiveEquals(c *Checker, sh *textpos.Shift) bool {
	if len(s.stack) != len(c.stack) || len(s.pending) != len(c.pending) {
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
	if !maps.Equal(s.openTop, c.openTop) || !maps.Equal(s.pendingTop, c.pendingTop) ||
		!slices.Equal(s.accum, c.accum) {
		return false
	}
	if s.firstElement != c.firstElement || s.doctypeSeen != c.doctypeSeen ||
		s.seenHTML != c.seenHTML || s.seenHead != c.seenHead ||
		s.seenBody != c.seenBody || s.seenTitle != c.seenTitle ||
		s.seenFrameset != c.seenFrameset || s.seenNoframes != c.seenNoframes ||
		s.headContent != c.headContent ||
		s.lastHeading != c.lastHeading || s.lastHeadingName != c.lastHeadingName ||
		s.lastUnterminated != c.lastUnterminated ||
		s.pendingRawText != c.pendingRawText {
		return false
	}
	if !maps.Equal(s.metaNames, c.metaNames) {
		return false
	}
	if !lineMapEqualShifted(s.seenOnce, c.seenOnce, sh) ||
		!lineMapEqualShifted(s.ids, c.ids, sh) ||
		!lineMapEqualShifted(s.anchors, c.anchors, sh) {
		return false
	}
	if s.titleLine == 0 || c.titleLine == 0 {
		if s.titleLine != c.titleLine {
			return false
		}
	} else if tl, ok := sh.Line(s.titleLine); !ok || tl != c.titleLine {
		return false
	}
	if ll, ok := sh.Line(s.lastLine); !ok || ll != c.lastLine {
		return false
	}
	if lo, ok := sh.Off(s.lastOffset); !ok || lo != c.lastOffset {
		return false
	}
	if !offEqualShifted(s.oddQuotesAt, c.oddQuotesAt, sh) ||
		!offEqualShifted(s.headInsertPos, c.headInsertPos, sh) {
		return false
	}
	return c.em.OverlayEquals(s.overlay)
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
		if s.titleLine != 0 {
			tl, ok := sh.Line(s.titleLine)
			if !ok {
				return false
			}
			s.titleLine = tl
		}
	}
	ll, ok := sh.Line(s.lastLine)
	if !ok {
		return false
	}
	s.lastLine = ll
	lo, ok := sh.Off(s.lastOffset)
	if !ok {
		return false
	}
	s.lastOffset = lo
	if s.oddQuotesAt >= 0 {
		oq, ok := sh.Off(s.oddQuotesAt)
		if !ok {
			return false
		}
		s.oddQuotesAt = oq
	}
	if s.headInsertPos >= 0 {
		hp, ok := sh.Off(s.headInsertPos)
		if !ok {
			return false
		}
		s.headInsertPos = hp
	}
	return true
}

// Step feeds one token to the checker by pointer: Token without the
// per-call struct copy, for streaming drivers that also checkpoint
// between tokens (the incremental lint Session).
func (c *Checker) Step(tok *htmltoken.Token) { c.token(tok) }
