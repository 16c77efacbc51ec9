// Package htmltoken implements the lenient HTML tokenizer underneath
// weblint: the paper's "ad-hoc parser, which uses various heuristics to
// keep things together as it goes along".
//
// The tokenizer never fails. Every malformation it recovers from is
// recorded as a flag on the token it produced (odd number of quotes,
// unterminated comment, attributes on a closing tag, ...), so the
// checker can turn recoveries into diagnostics while continuing to
// check the rest of the document. All tokens carry 1-based line and
// column positions.
//
// # Allocation and ownership
//
// The tokenizer is built for a zero-allocation streaming hot path:
// token text is sliced out of the source (never copied), tag and
// attribute names carry interned lower-case forms, raw-text scanning
// is case-insensitive in place, and a Tokenizer can be Reset and
// reused so its line-index and attribute buffers warm up once. The one
// contract this imposes on streaming callers: a Token's Attrs slice is
// only valid until the next call to Next. Tokenize returns fully
// independent tokens.
package htmltoken

import "strings"

// Type identifies the kind of a token.
type Type int

const (
	// Text is document text between tags (including raw SCRIPT and
	// STYLE content, which is marked with Token.RawText).
	Text Type = iota
	// StartTag is an opening tag such as <A HREF="x">.
	StartTag
	// EndTag is a closing tag such as </A>.
	EndTag
	// Comment is an SGML comment <!-- ... -->.
	Comment
	// Doctype is a <!DOCTYPE ...> declaration.
	Doctype
	// Declaration is any other <! ...> markup declaration.
	Declaration
	// ProcInst is a <? ... > processing instruction.
	ProcInst
)

// String returns a short name for the token type.
func (t Type) String() string {
	switch t {
	case Text:
		return "text"
	case StartTag:
		return "start-tag"
	case EndTag:
		return "end-tag"
	case Comment:
		return "comment"
	case Doctype:
		return "doctype"
	case Declaration:
		return "declaration"
	case ProcInst:
		return "proc-inst"
	}
	return "unknown"
}

// Attr is one attribute of a start (or, erroneously, end) tag.
type Attr struct {
	// Name is the attribute name as written in the source.
	Name string
	// Lower is the ASCII lower-case form of Name, interned for known
	// HTML attribute names so checkers can use it as a map key
	// without re-folding (and re-allocating) per attribute.
	Lower string
	// Value is the attribute value with surrounding quotes removed
	// and entities left undecoded.
	Value string
	// HasValue distinguishes NAME=VALUE attributes from boolean
	// flag attributes such as ISMAP.
	HasValue bool
	// Quote is the quoting character used: '"', '\'', or 0 for an
	// unquoted value.
	Quote byte
	// Line and Col give the 1-based position of the attribute name.
	Line, Col int
	// Offset is the byte offset of the attribute name in the source
	// document; machine-applicable fixes are expressed as byte-span
	// edits anchored by it.
	Offset int
	// ValOffset is the byte offset of the attribute value (past any
	// opening quote). It is meaningful only when HasValue is true.
	ValOffset int
	// UnterminatedQuote reports that the value's opening quote was
	// never closed within the tag.
	UnterminatedQuote bool
}

// Token is one lexical item of the document.
type Token struct {
	// Type is the token kind.
	Type Type
	// Name is the tag name as written (original case) for start and
	// end tags, and "DOCTYPE" for doctype tokens.
	Name string
	// Lower is the ASCII lower-case form of Name for start and end
	// tags, interned for known HTML element names. It is the form
	// spec lookups key on.
	Lower string
	// Text is the content for Text and Comment tokens, and the full
	// declaration body for Doctype/Declaration tokens.
	Text string
	// Raw is the exact source consumed for this token.
	Raw string
	// Attrs are the parsed attributes of a tag.
	Attrs []Attr
	// Line and Col give the 1-based position of the token start.
	Line, Col int
	// Offset is the byte offset of the token's first byte in the
	// source document; Offset + len(Raw) is one past its last byte.
	// Checkers use it to attach byte-span fixes to diagnostics.
	Offset int
	// EndLine is the line on which the token's last byte falls.
	EndLine int

	// RawText marks Text tokens produced in raw-text mode (SCRIPT,
	// STYLE and friends).
	RawText bool
	// OddQuotes reports that the tag contained an unbalanced quote
	// and was recovered by ending it at the first '>'.
	OddQuotes bool
	// Unterminated reports that end of input arrived before the
	// token's closing delimiter.
	Unterminated bool
	// SlashClose reports an XHTML-style trailing slash (<BR/>).
	SlashClose bool
	// EmptyTag reports a bare "<>".
	EmptyTag bool
}

// Attr returns the first attribute with the given name,
// case-insensitively, or nil.
func (t Token) Attr(name string) *Attr {
	for i := range t.Attrs {
		if strings.EqualFold(t.Attrs[i].Name, name) {
			return &t.Attrs[i]
		}
	}
	return nil
}

// RawTextElements are the elements whose content is not parsed as
// markup. The tokenizer switches to raw-text mode automatically after
// emitting a start tag for one of these.
var RawTextElements = map[string]bool{
	"script":    true,
	"style":     true,
	"xmp":       true,
	"listing":   true,
	"plaintext": true,
}
