// Package entity provides the HTML character entity tables used when
// checking entity references in document text and attribute values.
//
// The tables cover the full HTML 4.0 set (the Latin-1, symbol and
// special collections); entities introduced by HTML 4.0 are marked so
// that documents checked against HTML 3.2 can be warned about them.
package entity

import (
	"strings"
	"unicode/utf8"
)

// Info describes one named character entity.
type Info struct {
	// Rune is the character the entity denotes.
	Rune rune
	// HTML40 reports whether the entity was introduced by HTML 4.0
	// (true) or was already defined in HTML 2.0/3.2 (false).
	HTML40 bool
}

// Lookup returns the entity info for name (case-sensitive, without the
// leading '&' and trailing ';'). The boolean result reports whether the
// name is a known entity.
func Lookup(name string) (Info, bool) {
	info, ok := table[name]
	return info, ok
}

// KnownIn reports whether name is a known entity for the given HTML
// version, where html40 selects the full 4.0 set and false restricts
// to the 2.0/3.2 set.
func KnownIn(name string, html40 bool) bool {
	info, ok := table[name]
	if !ok {
		return false
	}
	if info.HTML40 && !html40 {
		return false
	}
	return true
}

// Count returns the number of named entities in the table.
func Count() int { return len(table) }

// Ref is one entity reference found by Scan.
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

// Scan finds entity references in text. Bare ampersands which do not
// introduce a reference (not followed by a letter or '#') are reported
// as a Ref with empty Name, so callers can warn about unescaped '&'.
//
// Scan allocates the returned slice; hot paths should use ScanFunc,
// which streams the same references to a callback without allocating.
func Scan(text string) []Ref {
	var refs []Ref
	ScanFunc(text, func(r Ref) {
		refs = append(refs, r)
	})
	return refs
}

// ScanFunc calls fn for every entity reference in text, in document
// order. It finds exactly the references Scan returns, but performs no
// per-token allocation, so a checker processing entity-dense documents
// pays only for the findings it emits.
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

// Decode expands all well-formed entity references in text, leaving
// unknown or malformed references untouched.
func Decode(text string) string {
	if !strings.ContainsRune(text, '&') {
		return text
	}
	var b strings.Builder
	b.Grow(len(text))
	last := 0
	ScanFunc(text, func(r Ref) {
		if !r.Terminated {
			return
		}
		var c rune
		if r.Numeric {
			c = decodeNumeric(r.Name)
		} else if info, ok := table[r.Name]; ok {
			c = info.Rune
		}
		if c == 0 {
			return
		}
		end := r.Offset + 1 + len(r.Name) + 1 // & name ;
		b.WriteString(text[last:r.Offset])
		b.WriteRune(c)
		last = end
	})
	b.WriteString(text[last:])
	return b.String()
}

// Encode replaces the SGML metacharacters <, > and & in text with
// their entity forms.
func Encode(text string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(text)
}

func decodeNumeric(digits string) rune {
	if len(digits) < 2 || digits[0] != '#' {
		return 0
	}
	body := digits[1:]
	base := 10
	if body != "" && (body[0] == 'x' || body[0] == 'X') {
		base = 16
		body = body[1:]
	}
	var n int64
	for i := 0; i < len(body); i++ {
		d := hexVal(body[i])
		if d < 0 || d >= base {
			return 0
		}
		n = n*int64(base) + int64(d)
		if n > utf8.MaxRune {
			return 0
		}
	}
	if body == "" || !utf8.ValidRune(rune(n)) {
		return 0
	}
	return rune(n)
}

func hexVal(b byte) int {
	switch {
	case b >= '0' && b <= '9':
		return int(b - '0')
	case b >= 'a' && b <= 'f':
		return int(b-'a') + 10
	case b >= 'A' && b <= 'F':
		return int(b-'A') + 10
	}
	return -1
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
	return hexVal(b) >= 0
}
