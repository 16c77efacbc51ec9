// Package entity provides the HTML character entity tables used when
// checking entity references in document text and attribute values.
//
// The tables cover the full HTML 4.0 set (the Latin-1, symbol and
// special collections); entities introduced by HTML 4.0 are marked so
// that documents checked against HTML 3.2 can be warned about them.
package entity

import "strings"

// KnownIn reports whether name is a known entity for the given HTML
// version, where html40 selects the full 4.0 set and false restricts
// to the 2.0/3.2 set.
func KnownIn(name string, html40 bool) bool {
	isNew, ok := table[name]
	return ok && (html40 || !isNew)
}

// Ref is one entity reference found by ScanFunc.
type Ref struct {
	// Name is the entity name (for &amp;) or the digits (for
	// &#123;), without delimiters.
	Name string
	// Numeric reports whether the reference is a numeric character
	// reference.
	Numeric bool
	// Terminated reports whether the reference ended with ';'.
	Terminated bool
	// Offset is the byte offset of the '&' within the scanned text.
	Offset int
}

// ScanFunc calls fn for every entity reference in text, in document
// order. Bare ampersands which do not introduce a reference (not
// followed by a letter or '#') are reported as a Ref with empty Name,
// so callers can warn about unescaped '&'. It performs no per-token
// allocation, so a checker processing entity-dense documents pays only
// for the findings it emits.
func ScanFunc(text string, fn func(Ref)) {
	for i := 0; i < len(text); {
		k := strings.IndexByte(text[i:], '&')
		if k < 0 {
			return
		}
		i += k
		rest := text[i+1:]
		switch {
		case strings.HasPrefix(rest, "#"):
			j := 1
			for j < len(rest) && isDigitOrHex(rest[j], j) {
				j++
			}
			term := j < len(rest) && rest[j] == ';'
			fn(Ref{Name: rest[:j], Numeric: true, Terminated: term, Offset: i})
			i += j + 1
		case len(rest) > 0 && isAlpha(rest[0]):
			j := 0
			for j < len(rest) && isAlnum(rest[j]) {
				j++
			}
			term := j < len(rest) && rest[j] == ';'
			fn(Ref{Name: rest[:j], Terminated: term, Offset: i})
			i += j + 1
		default:
			fn(Ref{Offset: i})
			i++
		}
	}
}

func isAlpha(b byte) bool {
	return b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z'
}

func isAlnum(b byte) bool {
	return isAlpha(b) || b >= '0' && b <= '9'
}

// isDigitOrHex accepts decimal digits anywhere and 'x'/'X' plus hex
// digits after the first position (for &#xA0; style references).
func isDigitOrHex(b byte, pos int) bool {
	if b >= '0' && b <= '9' {
		return true
	}
	if pos == 1 && (b == 'x' || b == 'X') {
		return true
	}
	return b >= 'a' && b <= 'f' || b >= 'A' && b <= 'F'
}
