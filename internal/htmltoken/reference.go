//go:build tokendiff

package htmltoken

import (
	"strings"

	"weblint/internal/ascii"
)

// ReferenceTokenizer is the pre-table-driven tokenizer: per-byte
// scanning loops with spelled-out predicate calls, preserved as the
// differential oracle for the SWAR/byte-class rewrite. It is compiled
// only under the tokendiff build tag, where the differential tests
// assert that both implementations produce byte-identical token
// streams.
//
// The one deliberate stream change of the rewrite — dropping the
// zero-length raw-text token that used to be emitted for
// <script></script> — is mirrored here (see refNextRaw), so the two
// streams are comparable token for token.
type ReferenceTokenizer struct {
	src string
	pos int

	lineStarts []int

	rawUntil  string
	rawNeedle string

	attrBuf []Attr
}

// NewReference returns a ReferenceTokenizer over src.
func NewReference(src string) *ReferenceTokenizer {
	t := &ReferenceTokenizer{}
	t.Reset(src)
	return t
}

// ReferenceTokenize scans src with the reference tokenizer and returns
// all tokens, mirroring Tokenize.
func ReferenceTokenize(src string) []Token {
	tz := NewReference(src)
	var out []Token
	var tok Token
	for tz.NextInto(&tok) {
		cp := tok
		if len(tok.Attrs) > 0 {
			cp.Attrs = append([]Attr(nil), tok.Attrs...)
		}
		out = append(out, cp)
	}
	return out
}

// Reset re-arms the tokenizer over a new document.
func (t *ReferenceTokenizer) Reset(src string) {
	t.src = src
	t.pos = 0
	t.rawUntil = ""
	t.rawNeedle = ""
	t.lineStarts = append(t.lineStarts[:0], 0)
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			t.lineStarts = append(t.lineStarts, i+1)
		}
	}
}

func (t *ReferenceTokenizer) position(off int) (line, col int) {
	lo, hi := 0, len(t.lineStarts)
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.lineStarts[mid] <= off {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo + 1, off - t.lineStarts[lo] + 1
}

func (t *ReferenceTokenizer) lineAt(off int) int {
	l, _ := t.position(off)
	return l
}

// NextInto scans the next token into *tok, returning false at end of
// input.
func (t *ReferenceTokenizer) NextInto(tok *Token) bool {
	if t.pos >= len(t.src) {
		return false
	}
	*tok = Token{}
	if t.rawUntil != "" && t.nextRaw(tok) {
		return true
	}
	if t.src[t.pos] == '<' && t.startsMarkup(t.pos) {
		t.nextMarkup(tok)
		return true
	}
	t.nextText(tok)
	return true
}

func (t *ReferenceTokenizer) startsMarkup(off int) bool {
	if off+1 >= len(t.src) {
		return false
	}
	c := t.src[off+1]
	return refIsNameStart(c) || c == '/' || c == '!' || c == '?' || c == '>'
}

func (t *ReferenceTokenizer) nextText(tok *Token) {
	start := t.pos
	i := start
	for i < len(t.src) {
		if t.src[i] == '<' && i > start && t.startsMarkup(i) {
			break
		}
		i++
	}
	t.pos = i
	line, col := t.position(start)
	tok.Type = Text
	tok.Text = t.src[start:i]
	tok.Raw = t.src[start:i]
	tok.Line = line
	tok.Col = col
	tok.Offset = start
	tok.EndLine = t.lineAt(max(start, i-1))
}

// nextRaw consumes raw text until the closing tag of the raw element.
// It reports false — emitting nothing — when the closing tag starts
// immediately, so the stream never contains a zero-length token.
func (t *ReferenceTokenizer) nextRaw(tok *Token) bool {
	start := t.pos
	idx := ascii.IndexFold(t.src[start:], t.rawNeedle)
	t.rawUntil = ""
	t.rawNeedle = ""
	if idx == 0 {
		return false
	}
	end := len(t.src)
	if idx > 0 {
		end = start + idx
	}
	t.pos = end
	line, col := t.position(start)
	tok.Type = Text
	tok.Text = t.src[start:end]
	tok.Raw = t.src[start:end]
	tok.Line = line
	tok.Col = col
	tok.Offset = start
	tok.EndLine = t.lineAt(max(start, end-1))
	tok.RawText = true
	return true
}

func (t *ReferenceTokenizer) nextMarkup(tok *Token) {
	start := t.pos
	line, col := t.position(start)
	tok.Offset = start
	next := t.src[start+1]

	switch {
	case next == '>': // "<>"
		t.pos = start + 2
		tok.Type = StartTag
		tok.Raw = t.src[start:t.pos]
		tok.Line, tok.Col, tok.EndLine = line, col, line
		tok.EmptyTag = true
	case next == '!':
		if strings.HasPrefix(t.src[start:], "<!--") {
			t.nextComment(tok, start, line, col)
			return
		}
		t.nextDeclaration(tok, start, line, col)
	case next == '?':
		t.nextProcInst(tok, start, line, col)
	case next == '/':
		t.nextTag(tok, start, line, col, true)
	default:
		t.nextTag(tok, start, line, col, false)
	}
}

func (t *ReferenceTokenizer) nextComment(tok *Token, start, line, col int) {
	bodyStart := start + 4 // past "<!--"
	idx := strings.Index(t.src[bodyStart:], "-->")
	tok.Type, tok.Line, tok.Col = Comment, line, col
	if idx < 0 {
		tok.Text = t.src[bodyStart:]
		tok.Raw = t.src[start:]
		tok.Unterminated = true
		t.pos = len(t.src)
	} else {
		end := bodyStart + idx + 3
		tok.Text = t.src[bodyStart : bodyStart+idx]
		tok.Raw = t.src[start:end]
		t.pos = end
	}
	tok.EndLine = t.lineAt(max(start, t.pos-1))
}

func (t *ReferenceTokenizer) nextDeclaration(tok *Token, start, line, col int) {
	end, odd, unterminated := t.scanToGT(start + 2)
	body := t.src[start+2 : end]
	t.pos = end
	if !unterminated {
		t.pos = end + 1
	}
	tok.Type, tok.Text, tok.Raw = Declaration, body, t.src[start:t.pos]
	tok.Line, tok.Col, tok.EndLine = line, col, t.lineAt(max(start, t.pos-1))
	tok.OddQuotes, tok.Unterminated = odd, unterminated
	if rest := strings.TrimLeft(body, " \t\r\n\f\v"); ascii.HasPrefixFold(rest, "doctype") &&
		(len(rest) == len("doctype") || refIsSpace(rest[len("doctype")]) || rest[len("doctype")] == '\v') {
		tok.Type = Doctype
		tok.Name = "DOCTYPE"
	}
}

func (t *ReferenceTokenizer) nextProcInst(tok *Token, start, line, col int) {
	end, _, unterminated := t.scanToGT(start + 2)
	t.pos = end
	if !unterminated {
		t.pos = end + 1
	}
	tok.Type, tok.Text, tok.Raw = ProcInst, t.src[start+2:end], t.src[start:t.pos]
	tok.Line, tok.Col, tok.EndLine = line, col, t.lineAt(max(start, t.pos-1))
	tok.Unterminated = unterminated
}

func (t *ReferenceTokenizer) nextTag(tok *Token, start, line, col int, closing bool) {
	nameStart := start + 1
	if closing {
		nameStart++
	}
	nameEnd := nameStart
	for nameEnd < len(t.src) && refIsNameChar(t.src[nameEnd]) {
		nameEnd++
	}
	name := t.src[nameStart:nameEnd]
	lower, sym := lookupName(name)

	end, odd, unterminated := t.scanToGT(nameEnd)
	body := t.src[nameEnd:end]
	t.pos = end
	if !unterminated {
		t.pos = end + 1
	}

	tok.Type, tok.Name, tok.Lower, tok.Sym = StartTag, name, lower, sym
	tok.Raw = t.src[start:t.pos]
	tok.Line, tok.Col, tok.EndLine = line, col, t.lineAt(max(start, t.pos-1))
	tok.OddQuotes, tok.Unterminated = odd, unterminated
	if closing {
		tok.Type = EndTag
	}

	trimmed := strings.TrimRight(body, " \t\r\n")
	if strings.HasSuffix(trimmed, "/") && !strings.HasSuffix(trimmed, "=/") {
		tok.SlashClose = true
		body = strings.TrimSuffix(trimmed, "/")
	}

	tok.Attrs = t.parseAttrs(body, nameEnd)

	if tok.Type == StartTag && !unterminated && RawTextElements[lower] {
		t.rawUntil = lower
		t.rawNeedle = "</" + lower
	}
}

func (t *ReferenceTokenizer) scanToGT(off int) (end int, oddQuotes, unterminated bool) {
	var quote byte
	firstGT := -1
	quoteStart := 0
	quoteNewlines := 0

	recover := func() (int, bool, bool) {
		if firstGT >= 0 {
			return firstGT, true, false
		}
		for j := off; j < len(t.src); j++ {
			if t.src[j] == '>' {
				return j, true, false
			}
		}
		return len(t.src), true, true
	}

	for i := off; i < len(t.src); i++ {
		c := t.src[i]
		if quote != 0 {
			switch {
			case c == quote:
				quote = 0
			case c == '>':
				if firstGT < 0 {
					firstGT = i
				}
				if i-quoteStart > quoteMaxBytes {
					return recover()
				}
			case c == '\n':
				quoteNewlines++
				if quoteNewlines > quoteMaxNewlines {
					return recover()
				}
			}
			continue
		}
		switch c {
		case '"', '\'':
			quote = c
			quoteStart = i
			quoteNewlines = 0
		case '>':
			return i, false, false
		}
	}
	if quote != 0 {
		return recover()
	}
	return len(t.src), false, true
}

func (t *ReferenceTokenizer) parseAttrs(body string, base int) []Attr {
	attrs := t.attrBuf[:0]
	i := 0
	for i < len(body) {
		for i < len(body) && refIsSpace(body[i]) {
			i++
		}
		if i >= len(body) {
			break
		}
		nameStart := i
		for i < len(body) && !refIsSpace(body[i]) && body[i] != '=' {
			i++
		}
		name := body[nameStart:i]
		if name == "" { // stray '=' with no name
			i++
			continue
		}
		line, col := t.position(base + nameStart)
		attr := Attr{Name: name, Line: line, Col: col, Offset: base + nameStart}
		attr.Lower, attr.Sym = lookupName(name)

		j := i
		for j < len(body) && refIsSpace(body[j]) {
			j++
		}
		if j < len(body) && body[j] == '=' {
			j++
			for j < len(body) && refIsSpace(body[j]) {
				j++
			}
			attr.HasValue = true
			if j < len(body) && (body[j] == '"' || body[j] == '\'') {
				attr.Quote = body[j]
				j++
				valStart := j
				for j < len(body) && body[j] != attr.Quote {
					j++
				}
				attr.Value = body[valStart:j]
				attr.ValOffset = base + valStart
				if j < len(body) {
					j++
				} else {
					attr.UnterminatedQuote = true
				}
			} else {
				valStart := j
				for j < len(body) && !refIsSpace(body[j]) {
					j++
				}
				attr.Value = body[valStart:j]
				attr.ValOffset = base + valStart
			}
			i = j
		}
		attrs = append(attrs, attr)
	}
	t.attrBuf = attrs[:0]
	return attrs
}

func refIsNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func refIsNameChar(c byte) bool {
	return refIsNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == '.' || c == ':' || c == '_'
}

func refIsSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}
