package htmltoken

import (
	"testing"

	"weblint/internal/bytestr"
)

// Regression tests for the raw-text scan / needle-search interaction:
// bodies ending at EOF without a close tag, empty bodies, and false
// close-tag prefixes. These corners were previously only fuzz-covered.

// assertPartition checks the offset-partition invariant directly: the
// tokens cover the source exactly, with no zero-length token.
func assertPartition(t *testing.T, src string, toks []Token) {
	t.Helper()
	pos := 0
	for i, tok := range toks {
		if tok.Offset != pos {
			t.Fatalf("token %d (%v): offset %d, want %d", i, tok.Type, tok.Offset, pos)
		}
		if len(tok.Raw) == 0 {
			t.Fatalf("token %d (%v): empty Raw", i, tok.Type)
		}
		pos += len(tok.Raw)
	}
	if pos != len(src) {
		t.Fatalf("tokens cover %d of %d bytes", pos, len(src))
	}
}

func TestRawTextEOFWithoutCloseTag(t *testing.T) {
	for _, src := range []string{
		"<SCRIPT TYPE=\"a\">var x=1;",
		"<script>document.write('</p');",
		"<STYLE>h1 { color: red }",
	} {
		toks := tokens(t, src)
		assertPartition(t, src, toks)
		if len(toks) != 2 {
			t.Fatalf("%q: tokens = %+v", src, toks)
		}
		if toks[1].Type != Text || !toks[1].RawText {
			t.Fatalf("%q: token 1 = %+v", src, toks[1])
		}
		if toks[1].Offset+len(toks[1].Raw) != len(src) {
			t.Errorf("%q: raw token does not run to EOF", src)
		}
	}
}

func TestRawTextPartialCloseTagAtEOF(t *testing.T) {
	// "</scr" is not a close-tag prefix match for "</script", so the
	// raw body swallows it and runs to EOF.
	src := "<script>x</scr"
	toks := tokens(t, src)
	assertPartition(t, src, toks)
	if len(toks) != 2 || toks[1].Text != "x</scr" || !toks[1].RawText {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestEmptyRawBodyEmitsNoToken(t *testing.T) {
	// An immediately-closed raw element produces no zero-length text
	// token: the stream goes straight from start tag to end tag.
	for _, src := range []string{
		"<script></script>x",
		"<SCRIPT></SCRIPT>x",
		"<script></SCRIPT>x",
		"<style></style>x",
	} {
		toks := tokens(t, src)
		assertPartition(t, src, toks)
		if len(toks) != 3 {
			t.Fatalf("%q: tokens = %+v", src, toks)
		}
		if toks[1].Type != EndTag {
			t.Fatalf("%q: token 1 = %+v", src, toks[1])
		}
		if toks[2].Type != Text || toks[2].Text != "x" || toks[2].RawText {
			t.Fatalf("%q: token 2 = %+v", src, toks[2])
		}
	}
}

func TestRawTextFalseClosePrefixEndsRawMode(t *testing.T) {
	// The needle "</script" matches the start of "</scriptmore>":
	// raw mode ends there and the tag is tokenized as an ordinary
	// (mismatched) end tag — the lenient behavior the checker's
	// mis-matched-close diagnostics rely on.
	src := "<script></scriptmore>x"
	toks := tokens(t, src)
	assertPartition(t, src, toks)
	if len(toks) != 3 {
		t.Fatalf("tokens = %+v", toks)
	}
	if toks[1].Type != EndTag || toks[1].Name != "scriptmore" {
		t.Fatalf("token 1 = %+v", toks[1])
	}
	if toks[2].RawText {
		t.Fatalf("text after false close still raw: %+v", toks[2])
	}
}

func TestRawTextCloseTagAtExactEOF(t *testing.T) {
	// The close tag is the last thing in the document.
	src := "<script>a</script>"
	toks := tokens(t, src)
	assertPartition(t, src, toks)
	if len(toks) != 3 || toks[2].Type != EndTag {
		t.Fatalf("tokens = %+v", toks)
	}
	// And an empty body closed at exact EOF.
	src = "<script></script>"
	toks = tokens(t, src)
	assertPartition(t, src, toks)
	if len(toks) != 2 || toks[1].Type != EndTag {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestRawTextUnterminatedStartTagDoesNotEnterRawMode(t *testing.T) {
	// A SCRIPT start tag cut off at EOF never enters raw mode; there
	// is nothing after it either way, but the tokenizer must not
	// record a pending needle that a Reset reuse could trip over.
	src := "<script type=\"a"
	tz := New(src)
	var tok Token
	n := 0
	for tz.NextInto(&tok) {
		n++
	}
	if n != 1 {
		t.Fatalf("%d tokens", n)
	}
	tz.Reset("plain text")
	toks := collectNextInto("plain text")
	if len(toks) != 1 || toks[0].RawText {
		t.Fatalf("reused tokenizer: %+v", toks)
	}
}

// TestResetBytesAndRelease pins the pool contract: Reset over a
// bytestr view aliases the slice without copying, and Release drops
// every reference into the last document (source, attr spares) while
// keeping the tokenizer reusable.
func TestResetBytesAndRelease(t *testing.T) {
	tk := New("")
	tk.Reset(bytestr.String([]byte(`<IMG SRC="a.gif" ALT="x">text`)))
	var tok Token
	if !tk.NextInto(&tok) || tok.Type != StartTag || tok.Name != "IMG" || len(tok.Attrs) != 2 {
		t.Fatalf("first token over a byte view = %+v", tok)
	}
	tk.Release()
	if tk.NextInto(&tok) {
		t.Fatalf("released tokenizer still yields tokens: %+v", tok)
	}
	// Released tokenizers re-arm cleanly.
	tk.Reset("<P>hi")
	if !tk.NextInto(&tok) || tok.Type != StartTag || tok.Name != "P" {
		t.Fatalf("post-Release token = %+v", tok)
	}
}

// TestInternCacheSurvivesBufferReuse: a pooled tokenizer meets its
// next document in a recycled buffer. A name cached from the last
// document must not read the new bytes written over it: <TT> rewritten
// in place to <TD> tokenizes as td.
func TestInternCacheSurvivesBufferReuse(t *testing.T) {
	buf := []byte("<TT>x</TT>")
	tk := New("")
	tk.Reset(bytestr.String(buf))
	var tok Token
	for tk.NextInto(&tok) {
	}
	copy(buf, "<TD>x</TD>")
	tk.Reset(bytestr.String(buf))
	if !tk.NextInto(&tok) || tok.Name != "TD" || tok.Lower != "td" {
		t.Fatalf("rewritten buffer's first tag: Name %q Lower %q, want TD/td", tok.Name, tok.Lower)
	}
}

// TestStartsMarkupAtEOF: a lone '<' as the document's final byte is
// text, not markup.
func TestStartsMarkupAtEOF(t *testing.T) {
	toks := Tokenize("a<")
	if len(toks) != 1 || toks[0].Type != Text || toks[0].Raw != "a<" {
		t.Fatalf("trailing '<' tokens = %+v", toks)
	}
}
