// Package textpos maps byte offsets in a document to line-based
// positions and back, for the incremental lint Session, the LSP server
// (0-based lines, UTF-16 code-unit columns) and the baseline
// fingerprinter.
//
// An Index counts lines in one of two conventions. NewLF's is the
// tokenizer's: only "\n" ends a line, so message line numbers count
// this way, and the Session and the fingerprinter resolve them through
// LF indexes. New's is the protocol's: "\n", "\r\n" and a lone "\r"
// each end a line, as LSP clients count. The two differ only where a
// lone "\r" occurs, and so the LSP needs both: the Session's LF index
// turns a message's line into a byte offset, and the server's protocol
// index turns offsets into editor positions and back.
//
// Columns are counted in UTF-16 code units — one unit per BMP rune,
// two per astral-plane rune (surrogate pair), and one per invalid
// UTF-8 byte (which mirrors how editors decode such bytes as one
// replacement character each).
package textpos

import (
	"sort"
	"strings"
	"unicode/utf8"
)

// Index is an immutable line index over one document. Construct with
// New or NewLF; the zero value indexes the empty document.
type Index struct {
	src string
	// starts holds the byte offset of each line's first byte. Line 0
	// starts at 0; there is always at least one line.
	starts []int
	// lf records the convention: only '\n' ends a line.
	lf bool
}

// New builds an index over src in the protocol convention.
func New(src string) *Index { return newIndex(src, false) }

// NewLF builds an index over src in the tokenizer's convention, where
// only '\n' ends a line: htmltoken counts lines by bare newlines, and
// "\r\n" is one separator only because it contains one '\n'.
func NewLF(src string) *Index { return newIndex(src, true) }

func newIndex(src string, lf bool) *Index {
	return &Index{src: src, starts: appendStarts(nil, src, 0, len(src), lf), lf: lf}
}

// appendStarts appends the line starts among offsets [lo, hi] of src.
// An offset starts a line at 0, after a '\n' and, in the protocol
// convention (lf false), after a '\r' that no '\n' follows.
func appendStarts(starts []int, src string, lo, hi int, lf bool) []int {
	if lo == 0 {
		starts, lo = append(starts, 0), 1
	}
	seps := "\r\n"
	if lf {
		seps = "\n"
	}
	for j := lo - 1; j < hi; j++ {
		k := strings.IndexAny(src[j:hi], seps)
		if k < 0 {
			break
		}
		j += k
		if src[j] == '\r' && j+1 < len(src) && src[j+1] == '\n' {
			continue
		}
		starts = append(starts, j+1)
	}
	return starts
}

// Splice returns the index of the edited document — ix's source with
// bytes [start, end) replaced by replacement, yielding newSrc — in
// ix's convention, equal to a rebuild. Whether an offset starts a line
// depends only on the byte before it and the byte at it, so starts
// before start are kept, offsets [start, start+len(replacement)] are
// rescanned, and starts after end shift by the length delta: an edit
// costs O(len(replacement) + lines), not a document scan.
func (ix *Index) Splice(start, end int, replacement, newSrc string) *Index {
	p := sort.SearchInts(ix.starts, start) // starts[:p] < start
	q := sort.SearchInts(ix.starts, end+1) // starts[q:] > end
	starts := make([]int, 0, p+1+strings.Count(replacement, "\n")+len(ix.starts)-q)
	starts = append(starts, ix.starts[:p]...)
	starts = appendStarts(starts, newSrc, start, start+len(replacement), ix.lf)
	delta := len(replacement) - (end - start)
	for _, s := range ix.starts[q:] {
		starts = append(starts, s+delta)
	}
	return &Index{src: newSrc, starts: starts, lf: ix.lf}
}

// LineStarts exposes the index's line-start table (offset of each
// line's first byte, starts[0] == 0). Callers must treat it as
// read-only; it is the tokenizer hand-off that lets an incremental
// re-lint re-arm over a large document without rescanning it.
func (ix *Index) LineStarts() []int { return ix.starts }

// LineCount returns the number of lines. A trailing separator opens a
// final empty line, matching how editors count.
func (ix *Index) LineCount() int { return len(ix.starts) }

// LineStart returns the byte offset of the first byte of the 0-based
// line, clamping out-of-range lines to the nearest valid one.
func (ix *Index) LineStart(line int) int {
	if line < 0 {
		return 0
	}
	if line >= len(ix.starts) {
		return len(ix.src)
	}
	return ix.starts[line]
}

// lineEnd returns the offset one past the last content byte of the
// line, excluding its separator.
func (ix *Index) lineEnd(line int) int {
	if line < 0 {
		return 0
	}
	if line >= len(ix.starts) {
		return len(ix.src)
	}
	end := len(ix.src)
	if line+1 < len(ix.starts) {
		end = ix.starts[line+1]
		// Strip the separator: "\r\n", "\n" or a lone "\r".
		if end > 0 && ix.src[end-1] == '\n' {
			end--
		}
		if end > 0 && ix.src[end-1] == '\r' {
			end--
		}
	}
	return end
}

// LineText returns the content of the 0-based line without its
// separator. Out-of-range lines return "".
func (ix *Index) LineText(line int) string {
	if line < 0 || line >= len(ix.starts) {
		return ""
	}
	return ix.src[ix.starts[line]:ix.lineEnd(line)]
}

// OffsetLine returns the 0-based line containing the byte offset.
// Offsets past the end map to the last line; negative offsets to 0.
func (ix *Index) OffsetLine(off int) int {
	if off < 0 {
		return 0
	}
	lo, hi := 0, len(ix.starts) // invariant: starts[lo] <= off < starts[hi]
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.starts[mid] <= off {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// OffsetToUTF16 converts a byte offset to a (0-based line, UTF-16
// code-unit column) position. An offset inside a multi-byte rune
// counts as the rune's start; an offset inside the line's "\r\n"
// separator clamps to the end of the line's content; offsets past the
// end clamp to the end of the document.
func (ix *Index) OffsetToUTF16(off int) (line, char int) {
	if off > len(ix.src) {
		off = len(ix.src)
	}
	if off < 0 {
		off = 0
	}
	line = ix.OffsetLine(off)
	start := ix.starts[line]
	if end := ix.lineEnd(line); off > end {
		off = end
	}
	// The scan stops at off, but runes are decoded from src, so one
	// that off splits is seen whole.
	head := ix.src[:off]
	for i := start; i < len(head); {
		if head[i] < utf8.RuneSelf {
			// ASCII, most of any page: one unit, one byte.
			char++
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(ix.src[i:])
		if r == utf8.RuneError && size <= 1 {
			// Invalid byte: one unit, one byte.
			char++
			i++
			continue
		}
		if i+size > off {
			break // off is inside this rune: report the rune's start
		}
		char += utf16Len(r)
		i += size
	}
	return line, char
}

// UTF16ToOffset converts a (0-based line, UTF-16 code-unit column)
// position to a byte offset. Columns past the end of the line clamp to
// the line end (the LSP convention); a column landing inside a
// surrogate pair maps to the astral rune's start. Out-of-range lines
// clamp to the document bounds.
func (ix *Index) UTF16ToOffset(line, char int) int {
	if line < 0 {
		return 0
	}
	if line >= len(ix.starts) {
		return len(ix.src)
	}
	i, end := ix.starts[line], ix.lineEnd(line)
	for units := 0; i < end && units < char; {
		if ix.src[i] < utf8.RuneSelf {
			units++
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(ix.src[i:end])
		if r == utf8.RuneError && size <= 1 {
			units++
			i++
			continue
		}
		u := utf16Len(r)
		if units+u > char {
			return i // char splits a surrogate pair: rune start
		}
		units += u
		i += size
	}
	return i
}

// utf16Len returns the UTF-16 code-unit length of a rune.
func utf16Len(r rune) int {
	if r >= 0x10000 {
		return 2
	}
	return 1
}
