package textpos

import "strings"

// Shift maps positions in a document across one span edit: the old
// document's bytes [P, Q) were replaced, changing the length by Delta
// bytes and the line count by LineDelta. It is the single-valued
// mapping the incremental re-lint uses both to compare checkpointed
// checker state against a live re-lint (old-document positions against
// new-document positions) and to splice cached findings across the
// edit. Mappings that cannot be decided from the value alone — a
// position inside the replaced span, or a line the edit boundary makes
// ambiguous — report ok=false; callers treat that as "cannot splice
// here" and fall back to linting further.
//
// Lines are 1-based and follow LF-only semantics (NewLF), matching the
// tokenizer.
type Shift struct {
	// P, Q delimit the replaced span [P, Q) in the old document.
	P, Q int
	// Delta is len(new) - len(old).
	Delta int
	// LpB, LqB are the 1-based lines containing P and Q in the old
	// document; LineDelta is the change in total line count.
	LpB, LqB  int
	LineDelta int
	// QAtLineStart records whether Q sits exactly at a line start,
	// which makes every old position on line LqB unambiguously part of
	// the suffix.
	QAtLineStart bool
	// Old and New are LF indexes of the old and new documents.
	Old, New *Index
}

// NewShift describes replacing old[start:end] with replacement, where
// oldIx and newIx are LF indexes of the documents before and after.
func NewShift(oldIx, newIx *Index, start, end int, replacement string) *Shift {
	return &Shift{
		P:     start,
		Q:     end,
		Delta: len(replacement) - (end - start),
		LpB:   oldIx.OffsetLine(start) + 1,
		LqB:   oldIx.OffsetLine(end) + 1,
		LineDelta: strings.Count(replacement, "\n") -
			strings.Count(oldIx.src[start:end], "\n"),
		QAtLineStart: end == 0 || oldIx.src[end-1] == '\n',
		Old:          oldIx,
		New:          newIx,
	}
}

// Off maps an old-document byte offset. Offsets before the edit are
// unchanged, offsets at or after its end shift by Delta; an offset
// inside the replaced span is undecidable unless the edit preserved
// length (then every offset maps to itself).
func (s *Shift) Off(o int) (int, bool) {
	switch {
	case s.Delta == 0:
		return o, true
	case o < s.P:
		return o, true
	case o >= s.Q:
		return o + s.Delta, true
	}
	return 0, false
}

// Line maps an old-document 1-based line number (without knowing the
// column). Lines strictly before the edit are unchanged and lines
// strictly after it shift by LineDelta. The edit's own lines are
// undecidable from the line number alone, except when the line count
// did not change (identity) or when Q sits at a line start (every
// position on line LqB is then in the suffix).
func (s *Shift) Line(l int) (int, bool) {
	switch {
	case s.LineDelta == 0:
		return l, true
	case l < s.LpB:
		return l, true
	case l > s.LqB:
		return l + s.LineDelta, true
	case l == s.LqB && s.QAtLineStart:
		return l + s.LineDelta, true
	}
	return 0, false
}

// Pos maps a (1-based line, 1-based byte column) position exactly, by
// reconstructing the byte offset through the old index and re-deriving
// line/column through the new one. Col <= 0 means "column unknown"
// (the emitter's convention) and falls back to Line. Positions inside
// the replaced span are undecidable unless the edit changed neither
// length nor line count.
func (s *Shift) Pos(line, col int) (newLine, newCol int, ok bool) {
	if col <= 0 {
		nl, lok := s.Line(line)
		return nl, col, lok
	}
	off := s.Old.LineStart(line-1) + col - 1
	switch {
	case off < s.P:
		return line, col, true
	case off >= s.Q:
		noff := off + s.Delta
		nline := s.New.OffsetLine(noff)
		return nline + 1, noff - s.New.LineStart(nline) + 1, true
	case s.Delta == 0 && s.LineDelta == 0:
		return line, col, true
	}
	return 0, 0, false
}
