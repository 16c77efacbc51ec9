package htmltoken

import (
	"strings"

	"weblint/internal/ascii"
)

// Quote-recovery limits: when a quoted attribute value runs past this
// many newlines or bytes, the quote is assumed to be a mistake and the
// tag is re-terminated at the first '>' seen (the paper's "odd number
// of quotes" diagnosis).
const (
	quoteMaxNewlines = 3
	quoteMaxBytes    = 300
)

// Tokenizer scans an HTML document into tokens. Construct with New;
// reuse across documents with Reset, which keeps the internal buffers
// and makes a warm tokenizer allocation-free for typical markup.
//
// The scanning loops are table- and run-driven rather than per-byte:
// bytes are classified through the 256-entry classTable (tables.go),
// uninteresting runs are skipped with strings.IndexByte (vectorised in
// the runtime) or the SWAR word-at-a-time helpers in internal/ascii,
// and raw-text bodies ride ascii.IndexFold's occurrence cache. The
// token stream is byte-identical to the per-byte implementation this
// replaced, which is preserved as ReferenceTokenizer under the
// tokendiff build tag and compared token for token by the differential
// tests.
type Tokenizer struct {
	src string
	pos int

	// horizon is one past the furthest byte any scan decision has
	// examined so far — a running maximum. Token boundaries are not
	// always causally delimited: a text run peeks past its terminating
	// '<', raw text ends on a close-tag match covering bytes beyond
	// the token, and scanToGT's unbalanced-quote recovery can choose a
	// boundary based on bytes far ahead. A scan whose outcome depended
	// on running out of input records len(src)+1: the absence of
	// further bytes was load-bearing, so even an append invalidates
	// it. Incremental re-lint uses Horizon to decide which checkpoints
	// an edit leaves intact.
	horizon int

	// lineStarts[i] is the byte offset of the start of line i+1,
	// used to translate offsets to positions in O(log n).
	lineStarts []int

	// posLine is the 0-based lineStarts index of the most recently
	// resolved position. Lookups arrive in nearly monotone offset
	// order, so almost every one lands on the cached or the following
	// line and skips the binary search entirely.
	posLine int

	// rawUntil, when non-empty, is the lower-case element name whose
	// closing tag ends raw-text mode; rawNeedle is the "</name"
	// search needle for it.
	rawUntil  string
	rawNeedle string

	// attrBuf backs the Attrs slices of returned tokens; see the
	// ownership note on Next.
	attrBuf []Attr

	// internCache is a small direct-mapped cache in front of
	// internLower for non-lower-case names. Documents repeat the same
	// handful of upper-case tag and attribute spellings (<TD>, HREF,
	// ...) thousands of times; a hit here is a case-folding compare
	// instead of a map hash per name. Entries hold only canonical
	// lower-case names, never a substring of a checked document: the
	// source may be a recycled buffer that a later document overwrites.
	internCache [internCacheSize]string
}

// New returns a Tokenizer over src.
func New(src string) *Tokenizer {
	t := &Tokenizer{}
	t.Reset(src)
	return t
}

// Reset re-arms the tokenizer over a new document, retaining the
// line-index and attribute buffers so that a pooled tokenizer does not
// reallocate them per document.
func (t *Tokenizer) Reset(src string) {
	t.src = src
	t.pos = 0
	t.horizon = 0
	t.rawUntil = ""
	t.rawNeedle = ""
	t.posLine = 0
	t.lineStarts = append(t.lineStarts[:0], 0)
	for i := 0; i < len(src); {
		j := strings.IndexByte(src[i:], '\n')
		if j < 0 {
			break
		}
		i += j + 1
		t.lineStarts = append(t.lineStarts, i)
	}
}

// ResetAtLines is Reset positioned to begin scanning at byte offset
// pos, for the incremental re-lint, with a caller-supplied line-start
// table — the same LF semantics Reset computes itself: offset 0
// followed by one past every '\n'. The table covers the whole
// document, so tokens carry the same positions a full scan would
// produce. pos must lie on a token boundary of src that is outside
// raw-text mode (the Session guarantees this by checkpointing only at
// boundaries where InRawText reports false). The Session maintains the
// table across edits by splicing (textpos.Index.Splice), so re-arming
// over a megabyte document costs a table copy, not a document scan.
// The table is copied; the caller's slice is not retained.
func (t *Tokenizer) ResetAtLines(src string, pos int, lineStarts []int) {
	t.src = src
	t.pos = pos
	t.horizon = pos
	t.rawUntil = ""
	t.rawNeedle = ""
	t.posLine = 0
	t.lineStarts = append(t.lineStarts[:0], lineStarts...)
}

// Pos returns the byte offset scanning resumes at. After NextInto it
// is one past the token just returned: tokens partition the document,
// so this is a token-boundary offset.
func (t *Tokenizer) Pos() int { return t.pos }

// Horizon returns one past the furthest byte examined by any scan
// decision since Reset (see the field comment). It is always at least
// Pos; len(src)+1 means some decision depended on end of input. An
// edit at byte offset start invalidates the tokenization prefix iff
// start < Horizon recorded at that point.
func (t *Tokenizer) Horizon() int { return t.horizon }

// see records that a scan decision examined bytes up to (excluding)
// off.
func (t *Tokenizer) see(off int) {
	if off > t.horizon {
		t.horizon = off
	}
}

// InRawText reports whether the next token will be scanned in
// raw-text mode (inside a SCRIPT/STYLE/... body). A boundary with raw
// mode armed carries tokenizer state beyond the byte offset, so
// checkpoints are only taken where this is false.
func (t *Tokenizer) InRawText() bool { return t.rawUntil != "" }

// Release drops the references a parked tokenizer retains into the
// last document: the source string itself and the attribute substrings
// left in spare attrBuf capacity. Pools should call it before storing
// a tokenizer; buffer capacity is kept so the next Reset stays
// allocation-free.
func (t *Tokenizer) Release() {
	t.Reset("")
	buf := t.attrBuf[:cap(t.attrBuf)]
	for i := range buf {
		buf[i] = Attr{}
	}
	t.attrBuf = t.attrBuf[:0]
}

const internCacheSize = 32

// internName is internLower through the tokenizer's direct-mapped
// cache. Lower-case names resolve without touching the cache (they
// are returned as-is). A cached canonical name is its own key — s hits
// when it folds to it — and never aliases the document.
func (t *Tokenizer) internName(s string) string {
	if ascii.IsLower(s) {
		return s
	}
	e := &t.internCache[(uint(s[0])*2+uint(len(s)))%internCacheSize]
	if ascii.EqualFold(s, *e) {
		return *e
	}
	*e = internLower(s)
	return *e
}

// Tokenize scans the whole of src and returns all tokens. The returned
// tokens are fully independent of the tokenizer (attribute slices are
// copied out of the reused buffer).
func Tokenize(src string) []Token {
	tz := New(src)
	var out []Token
	for {
		tok, ok := tz.Next()
		if !ok {
			return out
		}
		if len(tok.Attrs) > 0 {
			tok.Attrs = append([]Attr(nil), tok.Attrs...)
		}
		out = append(out, tok)
	}
}

// position translates a byte offset into a 1-based line and column.
// The posLine cursor makes the common cases — same line as the last
// lookup, or the next one — two comparisons; everything else falls
// back to binary search over the narrowed range.
func (t *Tokenizer) position(off int) (line, col int) {
	starts := t.lineStarts
	lo := t.posLine
	if starts[lo] <= off {
		if lo+1 == len(starts) || off < starts[lo+1] {
			return lo + 1, off - starts[lo] + 1
		}
		if lo+2 == len(starts) || off < starts[lo+2] {
			t.posLine = lo + 1
			return lo + 2, off - starts[lo+1] + 1
		}
		lo = t.searchLine(lo+2, len(starts), off)
	} else {
		lo = t.searchLine(0, lo, off)
	}
	t.posLine = lo
	return lo + 1, off - starts[lo] + 1
}

// searchLine returns the greatest i in [lo, hi) with lineStarts[i] <=
// off. The caller guarantees one exists (lineStarts[0] is 0).
// Open-coded binary search: this ran several times per token before
// the posLine cursor, and the sort.Search closure showed up in
// profiles.
func (t *Tokenizer) searchLine(lo, hi, off int) int {
	for lo+1 < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.lineStarts[mid] <= off {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// lineAt returns just the 1-based line of a byte offset.
func (t *Tokenizer) lineAt(off int) int {
	l, _ := t.position(off)
	return l
}

// Next returns the next token. The boolean result is false at end of
// input.
//
// Ownership: the returned token's Attrs slice points into a buffer the
// tokenizer reuses on the following Next call. Callers which process
// tokens one at a time (the checker) need not care; callers which
// retain tokens must copy Attrs first (Tokenize does).
func (t *Tokenizer) Next() (Token, bool) {
	var tok Token
	ok := t.NextInto(&tok)
	return tok, ok
}

// NextInto scans the next token into *tok, returning false at end of
// input. It is Next without the struct-copy per call layer: streaming
// callers reuse one Token value across the whole document. The Attrs
// ownership note on Next applies.
func (t *Tokenizer) NextInto(tok *Token) bool {
	if t.pos >= len(t.src) {
		return false
	}
	*tok = Token{}
	// nextRaw reports false when the closing tag starts immediately
	// (empty raw body): raw mode is exited without emitting a
	// zero-length token, and the close tag is scanned as markup below.
	if t.rawUntil != "" && t.nextRaw(tok) {
		return true
	}
	if t.src[t.pos] == '<' && t.startsMarkup(t.pos) {
		t.nextMarkup(tok)
		t.see(t.pos)
		return true
	}
	t.nextText(tok)
	t.see(t.pos)
	return true
}

// startsMarkup reports whether the '<' at off begins markup rather
// than document text.
func (t *Tokenizer) startsMarkup(off int) bool {
	if off+1 >= len(t.src) {
		return false
	}
	return classTable[t.src[off+1]]&classMarkup != 0
}

// nextText consumes document text up to the next markup-starting '<'.
// The run is skipped '<' to '<': everything between candidates is
// covered by one IndexByte call each.
func (t *Tokenizer) nextText(tok *Token) {
	start := t.pos
	// The byte at start was already rejected as markup by NextInto
	// (or is not '<' at all), so the scan starts one past it.
	i := start + 1
	for {
		j := strings.IndexByte(t.src[i:], '<')
		if j < 0 {
			i = len(t.src)
			// The run ended only because input did: appended bytes
			// would fuse into this token.
			t.see(i + 1)
			break
		}
		i += j
		if t.startsMarkup(i) {
			t.see(i + 2) // peeked at the byte after '<'
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
// The scan is case-insensitive without lower-casing (and so copying)
// the rest of the document, which made raw-text-heavy pages quadratic:
// every SCRIPT element re-copied everything after it. A body that ends
// at EOF without a closing tag is emitted as one raw token to EOF.
//
// nextRaw reports false — emitting nothing — when the closing tag
// starts immediately (<script></script>), so the token stream never
// contains a zero-length token. Raw mode is exited either way.
func (t *Tokenizer) nextRaw(tok *Token) bool {
	start := t.pos
	idx := ascii.IndexFold(t.src[start:], t.rawNeedle)
	if idx < 0 {
		// No close tag anywhere: the raw run to EOF depends on the
		// absence of further input.
		t.see(len(t.src) + 1)
	} else {
		// The run ends here only because the close-tag needle matched
		// these bytes.
		t.see(start + idx + len(t.rawNeedle))
	}
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

// nextMarkup consumes one tag, comment, or declaration.
func (t *Tokenizer) nextMarkup(tok *Token) {
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

// nextComment consumes an SGML comment.
func (t *Tokenizer) nextComment(tok *Token, start, line, col int) {
	bodyStart := start + 4 // past "<!--"
	idx := strings.Index(t.src[bodyStart:], "-->")
	tok.Type, tok.Line, tok.Col = Comment, line, col
	if idx < 0 {
		tok.Text = t.src[bodyStart:]
		tok.Raw = t.src[start:]
		tok.Unterminated = true
		t.pos = len(t.src)
		t.see(len(t.src) + 1) // unterminated: an appended "-->" would end it
	} else {
		end := bodyStart + idx + 3
		tok.Text = t.src[bodyStart : bodyStart+idx]
		tok.Raw = t.src[start:end]
		t.pos = end
	}
	tok.EndLine = t.lineAt(max(start, t.pos-1))
}

// nextDeclaration consumes <! ...> declarations, classifying DOCTYPE.
func (t *Tokenizer) nextDeclaration(tok *Token, start, line, col int) {
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
		(len(rest) == len("doctype") || isSpace(rest[len("doctype")]) || rest[len("doctype")] == '\v') {
		tok.Type = Doctype
		tok.Name = "DOCTYPE"
	}
}

// nextProcInst consumes a <? ... > processing instruction.
func (t *Tokenizer) nextProcInst(tok *Token, start, line, col int) {
	end, _, unterminated := t.scanToGT(start + 2)
	t.pos = end
	if !unterminated {
		t.pos = end + 1
	}
	tok.Type, tok.Text, tok.Raw = ProcInst, t.src[start+2:end], t.src[start:t.pos]
	tok.Line, tok.Col, tok.EndLine = line, col, t.lineAt(max(start, t.pos-1))
	tok.Unterminated = unterminated
}

// nextTag consumes a start or end tag, parsing its attributes.
func (t *Tokenizer) nextTag(tok *Token, start, line, col int, closing bool) {
	nameStart := start + 1
	if closing {
		nameStart++
	}
	nameEnd := nameStart
	for nameEnd < len(t.src) && classTable[t.src[nameEnd]]&classNameChar != 0 {
		nameEnd++
	}
	name := t.src[nameStart:nameEnd]
	lower := t.internName(name)

	end, odd, unterminated := t.scanToGT(nameEnd)
	body := t.src[nameEnd:end]
	t.pos = end
	if !unterminated {
		t.pos = end + 1
	}

	tok.Type, tok.Name, tok.Lower = StartTag, name, lower
	tok.Raw = t.src[start:t.pos]
	tok.Line, tok.Col = line, col
	tok.OddQuotes, tok.Unterminated = odd, unterminated
	if closing {
		tok.Type = EndTag
	}

	// XHTML-style trailing slash: strip it before attribute parsing
	// so it doesn't read as a stray attribute.
	trimmed := strings.TrimRight(body, " \t\r\n")
	if strings.HasSuffix(trimmed, "/") && !strings.HasSuffix(trimmed, "=/") {
		tok.SlashClose = true
		body = strings.TrimSuffix(trimmed, "/")
	}

	tok.Attrs = t.parseAttrs(body, nameEnd)
	// EndLine last: attribute positions precede the tag's final byte,
	// so resolving them first keeps the posLine cursor monotone.
	tok.EndLine = t.lineAt(max(start, t.pos-1))

	if tok.Type == StartTag && !unterminated {
		if needle, ok := rawNeedles[lower]; ok {
			t.rawUntil, t.rawNeedle = lower, needle
		}
	}
}

// rawNeedles maps each of RawTextElements to the "</name" needle that
// ends its raw text.
var rawNeedles = func() map[string]string {
	m := make(map[string]string, len(RawTextElements))
	for name := range RawTextElements {
		m[name] = "</" + name
	}
	return m
}()

// scanToGT scans from off for the '>' terminating a tag, honouring
// quoted attribute values, with heuristic recovery for unbalanced
// quotes. It returns the offset of the terminating '>' (or len(src)),
// whether odd quotes were detected, and whether the tag was
// unterminated at end of input.
//
// The scan is event-driven: outside a quote only the two quote bytes
// and '>' matter, inside a quote only the closing quote, '>' and a
// newline do, so each IndexAny3 call jumps straight to the next such
// byte. Successive searches cover disjoint ranges of the source,
// keeping the whole scan linear even on pathological quote soup.
func (t *Tokenizer) scanToGT(off int) (end int, oddQuotes, unterminated bool) {
	src := t.src
	firstGT := -1

	// recoverFrom re-terminates the tag after an open quote is
	// declared a mistake: at the first '>' seen anywhere, or failing
	// at EOF. No '>' can hide in src[off:i] — an unquoted one would
	// have ended the tag, a quoted one would have set firstGT — so
	// searching onward from i equals the per-byte scan from off.
	recoverFrom := func(i int) (int, bool, bool) {
		// The choice to recover — and where — was made by examining
		// bytes up to i; i == len(src) means running out of input made
		// it, so even appended bytes would change the outcome.
		if i >= len(src) {
			t.see(len(src) + 1)
		} else {
			t.see(i + 1)
		}
		if firstGT >= 0 {
			return firstGT, true, false
		}
		if j := ascii.IndexByteFrom(src, '>', i); j >= 0 {
			t.see(j + 1)
			return j, true, false
		}
		t.see(len(src) + 1)
		return len(src), true, true
	}

	i := off
	for i < len(src) {
		j := ascii.IndexAny3(src[i:], '"', '\'', '>')
		if j < 0 {
			t.see(len(src) + 1) // unterminated: appended bytes would extend the tag
			return len(src), false, true
		}
		i += j
		quote := src[i]
		if quote == '>' {
			t.see(i + 1)
			return i, false, false
		}
		quoteStart := i
		quoteNewlines := 0
		i++
		for {
			j := ascii.IndexAny3(src[i:], quote, '>', '\n')
			if j < 0 {
				return recoverFrom(len(src))
			}
			i += j
			switch c := src[i]; {
			case c == quote:
				i++
			case c == '>':
				if firstGT < 0 {
					firstGT = i
				}
				if i-quoteStart > quoteMaxBytes {
					return recoverFrom(i)
				}
				i++
				continue
			default: // '\n'
				quoteNewlines++
				if quoteNewlines > quoteMaxNewlines {
					return recoverFrom(i)
				}
				i++
				continue
			}
			break
		}
	}
	t.see(len(src) + 1) // unterminated at EOF
	return len(src), false, true
}

// parseAttrs parses the attribute section of a tag. base is the byte
// offset of the section within the source, used for positions. The
// returned slice aliases t.attrBuf and is valid until the next Next
// call.
func (t *Tokenizer) parseAttrs(body string, base int) []Attr {
	attrs := t.attrBuf[:0]
	i := 0
	for i < len(body) {
		for i < len(body) && classTable[body[i]]&classSpace != 0 {
			i++
		}
		if i >= len(body) {
			break
		}
		nameStart := i
		for i < len(body) && classTable[body[i]]&classAttrDelim == 0 {
			i++
		}
		name := body[nameStart:i]
		if name == "" { // stray '=' with no name
			i++
			continue
		}
		line, col := t.position(base + nameStart)
		attr := Attr{Name: name, Lower: t.internName(name), Line: line, Col: col, Offset: base + nameStart}

		j := i
		for j < len(body) && classTable[body[j]]&classSpace != 0 {
			j++
		}
		if j < len(body) && body[j] == '=' {
			j++
			for j < len(body) && classTable[body[j]]&classSpace != 0 {
				j++
			}
			attr.HasValue = true
			if j < len(body) && (body[j] == '"' || body[j] == '\'') {
				attr.Quote = body[j]
				j++
				valStart := j
				// The whole quoted value is one IndexByte skip: the
				// quote byte is the only delimiter that matters.
				if k := strings.IndexByte(body[valStart:], attr.Quote); k >= 0 {
					j = valStart + k + 1
					attr.Value = body[valStart : j-1]
				} else {
					j = len(body)
					attr.Value = body[valStart:]
					attr.UnterminatedQuote = true
				}
				attr.ValOffset = base + valStart
			} else {
				valStart := j
				for j < len(body) && classTable[body[j]]&classSpace == 0 {
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
