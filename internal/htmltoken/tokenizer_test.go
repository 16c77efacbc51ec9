package htmltoken

import (
	"strings"
	"testing"
	"testing/quick"
)

func tokens(t *testing.T, src string) []Token {
	t.Helper()
	return Tokenize(src)
}

func TestSimpleDocument(t *testing.T) {
	toks := tokens(t, "<HTML><BODY>hello</BODY></HTML>")
	types := []Type{StartTag, StartTag, Text, EndTag, EndTag}
	names := []string{"HTML", "BODY", "", "BODY", "HTML"}
	if len(toks) != len(types) {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	for i := range toks {
		if toks[i].Type != types[i] {
			t.Errorf("token %d type = %v, want %v", i, toks[i].Type, types[i])
		}
		if toks[i].Name != names[i] {
			t.Errorf("token %d name = %q, want %q", i, toks[i].Name, names[i])
		}
	}
	if toks[2].Text != "hello" {
		t.Errorf("text = %q", toks[2].Text)
	}
}

func TestLineAndColumnTracking(t *testing.T) {
	src := "line one\n<P>\n  <B>x</B>\n"
	toks := tokens(t, src)
	// text, <P>, text, <B>, text, </B>, text
	p := toks[1]
	if p.Line != 2 || p.Col != 1 {
		t.Errorf("<P> at %d:%d, want 2:1", p.Line, p.Col)
	}
	b := toks[3]
	if b.Line != 3 || b.Col != 3 {
		t.Errorf("<B> at %d:%d, want 3:3", b.Line, b.Col)
	}
}

func TestMultilineTagEndLine(t *testing.T) {
	src := "<IMG\n SRC=\"x.gif\"\n ALT=\"y\">"
	toks := tokens(t, src)
	if len(toks) != 1 {
		t.Fatalf("got %d tokens", len(toks))
	}
	if toks[0].Line != 1 || toks[0].EndLine != 3 {
		t.Errorf("lines %d-%d, want 1-3", toks[0].Line, toks[0].EndLine)
	}
	at := toks[0].Attr("alt")
	if at == nil || at.Line != 3 {
		t.Errorf("ALT attr position: %+v", at)
	}
}

func TestAttributeForms(t *testing.T) {
	toks := tokens(t, `<INPUT TYPE="text" NAME='user' SIZE=10 DISABLED>`)
	tok := toks[0]
	if len(tok.Attrs) != 4 {
		t.Fatalf("got %d attrs: %+v", len(tok.Attrs), tok.Attrs)
	}
	typ := tok.Attr("type")
	if typ.Value != "text" || typ.Quote != '"' || !typ.HasValue {
		t.Errorf("type attr = %+v", typ)
	}
	name := tok.Attr("name")
	if name.Value != "user" || name.Quote != '\'' {
		t.Errorf("name attr = %+v", name)
	}
	size := tok.Attr("size")
	if size.Value != "10" || size.Quote != 0 {
		t.Errorf("size attr = %+v", size)
	}
	dis := tok.Attr("disabled")
	if dis.HasValue {
		t.Errorf("disabled should be a flag attribute: %+v", dis)
	}
	if tok.Attr("missing") != nil {
		t.Error("Attr found nonexistent attribute")
	}
}

func TestAttrCaseInsensitiveLookup(t *testing.T) {
	toks := tokens(t, `<IMG src="x.gif">`)
	if toks[0].Attr("SRC") == nil || toks[0].Attr("Src") == nil {
		t.Error("case-insensitive attribute lookup failed")
	}
}

func TestAttrValueWithSpaces(t *testing.T) {
	toks := tokens(t, `<IMG ALT="two words here">`)
	if got := toks[0].Attr("alt").Value; got != "two words here" {
		t.Errorf("alt = %q", got)
	}
}

func TestAttrValueEqualsInValue(t *testing.T) {
	toks := tokens(t, `<A HREF="page?a=1&b=2">x</A>`)
	if got := toks[0].Attr("href").Value; got != "page?a=1&b=2" {
		t.Errorf("href = %q", got)
	}
}

func TestOddQuotesRecovery(t *testing.T) {
	// The paper's Section 4.2 case: missing closing quote; the tag
	// must be re-terminated at the first '>' and flagged.
	src := "Click <B><A HREF=\"a.html>here</B></A>\nfor more.\n"
	toks := tokens(t, src)
	var a *Token
	for i := range toks {
		if toks[i].Type == StartTag && toks[i].Name == "A" {
			a = &toks[i]
		}
	}
	if a == nil {
		t.Fatal("no <A> token found")
	}
	if !a.OddQuotes {
		t.Error("OddQuotes not flagged")
	}
	if a.Raw != `<A HREF="a.html>` {
		t.Errorf("raw = %q", a.Raw)
	}
	// Following text resumes right after the recovered tag.
	var sawHere bool
	for _, tok := range toks {
		if tok.Type == Text && strings.Contains(tok.Text, "here") {
			sawHere = true
		}
	}
	if !sawHere {
		t.Error("text after recovered tag lost")
	}
}

func TestOddQuotesLongQuoteRecovery(t *testing.T) {
	// A run-away quote spanning more than quoteMaxNewlines newlines
	// triggers recovery even when a later quote would close it.
	src := "<A HREF=\"x>one</A>\ntwo\nthree\nfour\nfive\n<IMG ALT=\"ok\" SRC=\"y.gif\">"
	toks := tokens(t, src)
	if toks[0].Type != StartTag || toks[0].Name != "A" || !toks[0].OddQuotes {
		t.Fatalf("first token = %+v", toks[0])
	}
	// The IMG tag must still be tokenized as a tag.
	found := false
	for _, tok := range toks {
		if tok.Type == StartTag && tok.Name == "IMG" && !tok.OddQuotes {
			found = true
		}
	}
	if !found {
		t.Error("IMG tag after recovery not tokenized cleanly")
	}
}

func TestUnterminatedTagAtEOF(t *testing.T) {
	toks := tokens(t, "text <A HREF=\"x.html\"")
	last := toks[len(toks)-1]
	if last.Type != StartTag || !last.Unterminated {
		t.Errorf("last token = %+v, want unterminated start tag", last)
	}
}

func TestEmptyTag(t *testing.T) {
	toks := tokens(t, "a <> b")
	var found bool
	for _, tok := range toks {
		if tok.EmptyTag {
			found = true
		}
	}
	if !found {
		t.Error("<> not flagged as empty tag")
	}
}

func TestStrayLessThanIsText(t *testing.T) {
	toks := tokens(t, "if a < b then")
	if len(toks) != 1 || toks[0].Type != Text {
		t.Fatalf("tokens = %+v", toks)
	}
	if toks[0].Text != "if a < b then" {
		t.Errorf("text = %q", toks[0].Text)
	}
}

func TestComment(t *testing.T) {
	toks := tokens(t, "<!-- a comment -->after")
	if toks[0].Type != Comment || toks[0].Text != " a comment " {
		t.Fatalf("comment token = %+v", toks[0])
	}
	if toks[1].Type != Text || toks[1].Text != "after" {
		t.Errorf("text after comment = %+v", toks[1])
	}
}

func TestUnterminatedComment(t *testing.T) {
	toks := tokens(t, "<!-- never closed")
	if len(toks) != 1 || !toks[0].Unterminated || toks[0].Type != Comment {
		t.Fatalf("tokens = %+v", toks)
	}
}

func TestCommentWithMarkupInside(t *testing.T) {
	toks := tokens(t, "<!-- <B>bold</B> -->")
	if len(toks) != 1 || toks[0].Type != Comment {
		t.Fatalf("tokens = %+v", toks)
	}
	if !strings.Contains(toks[0].Text, "<B>") {
		t.Errorf("comment text = %q", toks[0].Text)
	}
}

func TestDoctype(t *testing.T) {
	toks := tokens(t, `<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.0//EN"><HTML>`)
	if toks[0].Type != Doctype || toks[0].Name != "DOCTYPE" {
		t.Fatalf("doctype token = %+v", toks[0])
	}
	if !strings.Contains(toks[0].Text, "W3C//DTD HTML 4.0") {
		t.Errorf("doctype text = %q", toks[0].Text)
	}
	if toks[1].Type != StartTag || toks[1].Name != "HTML" {
		t.Errorf("token after doctype = %+v", toks[1])
	}
}

func TestDeclarationAndProcInst(t *testing.T) {
	toks := tokens(t, `<!ENTITY x "y"><?php echo ?>text`)
	if toks[0].Type != Declaration {
		t.Errorf("token 0 = %+v", toks[0])
	}
	if toks[1].Type != ProcInst {
		t.Errorf("token 1 = %+v", toks[1])
	}
	if toks[2].Type != Text {
		t.Errorf("token 2 = %+v", toks[2])
	}
}

func TestEndTagWithAttributes(t *testing.T) {
	toks := tokens(t, `</A HREF="x">`)
	if toks[0].Type != EndTag || toks[0].Name != "A" {
		t.Fatalf("token = %+v", toks[0])
	}
	if len(toks[0].Attrs) != 1 {
		t.Errorf("end tag attrs = %+v", toks[0].Attrs)
	}
}

func TestSlashClose(t *testing.T) {
	toks := tokens(t, `<BR/><HR /><IMG SRC="x"/>`)
	for i, tok := range toks {
		if !tok.SlashClose {
			t.Errorf("token %d (%s) SlashClose not set", i, tok.Name)
		}
	}
	img := toks[2]
	if img.Attr("src") == nil || img.Attr("src").Value != "x" {
		t.Errorf("IMG attrs = %+v", img.Attrs)
	}
	if img.Attr("/") != nil {
		t.Error("trailing slash leaked into attributes")
	}
}

func TestRawTextScript(t *testing.T) {
	src := "<SCRIPT TYPE=\"text/javascript\">if (a<b && c>d) { x(\"</p>\") }</SCRIPT>after"
	toks := tokens(t, src)
	if toks[0].Type != StartTag || toks[0].Name != "SCRIPT" {
		t.Fatalf("token 0 = %+v", toks[0])
	}
	if toks[1].Type != Text || !toks[1].RawText {
		t.Fatalf("token 1 = %+v", toks[1])
	}
	if !strings.Contains(toks[1].Text, "a<b && c>d") {
		t.Errorf("script body = %q", toks[1].Text)
	}
	if toks[2].Type != EndTag || toks[2].Name != "SCRIPT" {
		t.Errorf("token 2 = %+v", toks[2])
	}
	if toks[3].Type != Text || toks[3].Text != "after" {
		t.Errorf("token 3 = %+v", toks[3])
	}
}

func TestRawTextCaseInsensitiveClose(t *testing.T) {
	toks := tokens(t, "<style>h1 { color: red }</STYLE>x")
	if toks[1].Type != Text || !toks[1].RawText {
		t.Fatalf("token 1 = %+v", toks[1])
	}
	if toks[2].Type != EndTag || toks[2].Name != "STYLE" {
		t.Errorf("token 2 = %+v", toks[2])
	}
}

func TestRawTextUnclosedRunsToEOF(t *testing.T) {
	toks := tokens(t, "<script>var x = 1; <b>not a tag</b>")
	if len(toks) != 2 {
		t.Fatalf("tokens = %+v", toks)
	}
	if !toks[1].RawText || !strings.Contains(toks[1].Text, "<b>not a tag</b>") {
		t.Errorf("raw text = %+v", toks[1])
	}
}

func TestXMPIsRawText(t *testing.T) {
	toks := tokens(t, "<XMP><html> literally </XMP>")
	if toks[1].Type != Text || !toks[1].RawText || !strings.Contains(toks[1].Text, "<html>") {
		t.Errorf("XMP content = %+v", toks[1])
	}
}

func TestTagNamePreservesCase(t *testing.T) {
	toks := tokens(t, "<TiTlE></tItLe>")
	if toks[0].Name != "TiTlE" || toks[1].Name != "tItLe" {
		t.Errorf("names = %q, %q", toks[0].Name, toks[1].Name)
	}
}

func TestUnterminatedAttrQuote(t *testing.T) {
	// Quote closes at next line's quote within limits: the tokenizer
	// accepts it (SGML allows multi-line values) without flags.
	toks := tokens(t, "<IMG ALT=\"spans\nlines\" SRC=\"x\">")
	if toks[0].OddQuotes {
		t.Error("legal multi-line value flagged as odd quotes")
	}
	if got := toks[0].Attr("alt").Value; got != "spans\nlines" {
		t.Errorf("alt = %q", got)
	}
}

// TestRawConcatenationInvariant: concatenating every token's Raw must
// reproduce the source exactly — the tokenizer consumes all input.
func TestRawConcatenationInvariant(t *testing.T) {
	sources := []string{
		"",
		"plain",
		"<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>x</BODY></HTML>",
		"Click <B><A HREF=\"a.html>here</B></A>\nfor more details.\n",
		"<!-- c --><p>x<br/>y</p><script>a<b</script>done",
		"a <> b < c &amp; <!DOCTYPE HTML>",
		"<A HREF=\"unterminated",
	}
	for _, src := range sources {
		var b strings.Builder
		for _, tok := range Tokenize(src) {
			b.WriteString(tok.Raw)
		}
		if b.String() != src {
			t.Errorf("raw concat mismatch:\n src %q\n got %q", src, b.String())
		}
	}
}

// TestTokenizerNeverPanics drives the tokenizer with arbitrary input
// and checks structural invariants.
func TestTokenizerNeverPanics(t *testing.T) {
	f := func(s string) bool {
		toks := Tokenize(s)
		var b strings.Builder
		lastLine := 0
		for _, tok := range toks {
			if tok.Line < 1 || tok.Col < 1 || tok.EndLine < tok.Line {
				return false
			}
			if tok.Line < lastLine {
				return false // positions must be monotonic
			}
			lastLine = tok.Line
			b.WriteString(tok.Raw)
		}
		return b.String() == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestTypeString(t *testing.T) {
	names := map[Type]string{
		Text: "text", StartTag: "start-tag", EndTag: "end-tag",
		Comment: "comment", Doctype: "doctype", Declaration: "declaration",
		ProcInst: "proc-inst", Type(99): "unknown",
	}
	for ty, want := range names {
		if ty.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(ty), ty.String(), want)
		}
	}
}

// TestTokenLowerInterned verifies tokens carry the lower-case tag and
// attribute names the checker keys on, for every case variant.
func TestTokenLowerInterned(t *testing.T) {
	toks := Tokenize(`<IMG SRC="x.gif" Alt="y"><p CLASS="z"></P>`)
	if len(toks) != 3 {
		t.Fatalf("got %d tokens", len(toks))
	}
	if toks[0].Lower != "img" || toks[1].Lower != "p" || toks[2].Lower != "p" {
		t.Errorf("tag Lower = %q, %q, %q", toks[0].Lower, toks[1].Lower, toks[2].Lower)
	}
	if toks[0].Attrs[0].Lower != "src" || toks[0].Attrs[1].Lower != "alt" {
		t.Errorf("attr Lower = %q, %q", toks[0].Attrs[0].Lower, toks[0].Attrs[1].Lower)
	}
	// Unknown names still get a correct lower-case form.
	toks = Tokenize(`<CUSTOMWIDGET DATA-Thing="v">`)
	if toks[0].Lower != "customwidget" || toks[0].Attrs[0].Lower != "data-thing" {
		t.Errorf("unknown-name Lower = %q / %q", toks[0].Lower, toks[0].Attrs[0].Lower)
	}
}

// TestTokenSym: tags and attributes carry the Sym of their name in
// every case, through the tokenizer's name cache and without it, and
// names outside the vocabulary carry NoSym with their own lower-case
// form. The unknown names repeat in mixed case and past the 16-byte
// fold buffer, and ZAAAZ/zbbbz share a cache slot, so hits, misses and
// evictions all run.
func TestTokenSym(t *testing.T) {
	src := strings.Repeat(`<TR><TD Width=1>a<td>b<TH>c<tt>d</TT></tr>`+
		`<CustomWidget DATA-Thing=1 data-thing=2><ZAAAZ><zbbbz><Custom-Element-Longer-Than-Sixteen>`, 3)
	toks := Tokenize(src)
	for i, tok := range toks {
		if tok.Type != StartTag && tok.Type != EndTag {
			continue
		}
		names := []struct {
			name, lower string
			sym         Sym
		}{{tok.Name, tok.Lower, tok.Sym}}
		for _, a := range tok.Attrs {
			names = append(names, struct {
				name, lower string
				sym         Sym
			}{a.Name, a.Lower, a.Sym})
		}
		for _, n := range names {
			wantLower, wantSym := lookupName(n.name)
			if n.lower != wantLower || n.sym != wantSym || n.lower != strings.ToLower(n.name) {
				t.Fatalf("token %d: %q resolved to %q/%d, want %q/%d", i, n.name, n.lower, n.sym, wantLower, wantSym)
			}
			if known := n.sym != NoSym; known != (SymOf(n.name) != NoSym) || known && SymName(n.sym) != n.lower {
				t.Fatalf("token %d: %q has Sym %d naming %q", i, n.name, n.sym, SymName(n.sym))
			}
		}
	}
	if toks[0].Sym != SymOf("tr") || toks[1].Attrs[0].Sym != SymOf("width") || SymOf("customwidget") != NoSym {
		t.Errorf("Syms: TR %d, WIDTH %d, CustomWidget %d", toks[0].Sym, toks[1].Attrs[0].Sym, SymOf("customwidget"))
	}
}

// TestInternSlotTableRow: the cells of a table row keep their own
// cache slots, so a row of TD, TH and TT under TR resolves from the
// cache, and every case variant of a name shares its slot.
func TestInternSlotTableRow(t *testing.T) {
	slots := map[uint]string{}
	for _, name := range []string{"td", "tr", "th", "tt"} {
		slot := internSlot(name)
		if other, ok := slots[slot]; ok {
			t.Errorf("%s and %s share cache slot %d", name, other, slot)
		}
		slots[slot] = name
		if internSlot(strings.ToUpper(name)) != slot || internSlot(name[:1]+strings.ToUpper(name[1:])) != slot {
			t.Errorf("case variants of %s use different slots", name)
		}
	}
}

// TestRawTextMixedCaseCloseAtEOF exercises the indexFold scan edges:
// a mixed-case closing tag, and raw text whose closing tag sits at the
// very end of the input.
func TestRawTextMixedCaseCloseAtEOF(t *testing.T) {
	toks := Tokenize("<script>var s = 1;</ScRiPt>")
	if len(toks) != 3 {
		t.Fatalf("got %d tokens: %+v", len(toks), toks)
	}
	if !toks[1].RawText || toks[1].Text != "var s = 1;" {
		t.Errorf("raw token = %+v", toks[1])
	}
	if toks[2].Type != EndTag || toks[2].Lower != "script" {
		t.Errorf("close token = %+v", toks[2])
	}

	// Needle truncated at EOF must not match: raw text runs out.
	toks = Tokenize("<script>var s = 1;</scrip")
	if len(toks) != 2 || toks[1].Text != "var s = 1;</scrip" {
		t.Errorf("truncated close: %+v", toks)
	}
}

// TestTokenizerReset verifies a reused tokenizer produces the same
// stream a fresh one does, including line positions and raw-text state
// left over from a previous document.
func TestTokenizerReset(t *testing.T) {
	docs := []string{
		"<HTML>\n<BODY>\n<P>one</P>\n</BODY>\n</HTML>",
		"<script>unclosed raw text",
		"<P>plain\ntext</P>",
	}
	tz := New("")
	for _, doc := range docs {
		want := Tokenize(doc)
		tz.Reset(doc)
		var got []Token
		var tok Token
		for tz.NextInto(&tok) {
			cp := tok
			if len(cp.Attrs) > 0 {
				cp.Attrs = append([]Attr(nil), cp.Attrs...)
			}
			got = append(got, cp)
		}
		if len(got) != len(want) {
			t.Fatalf("doc %q: got %d tokens, want %d", doc, len(got), len(want))
		}
		for i := range got {
			if got[i].Type != want[i].Type || got[i].Raw != want[i].Raw ||
				got[i].Line != want[i].Line || got[i].Col != want[i].Col {
				t.Errorf("doc %q token %d: got %+v, want %+v", doc, i, got[i], want[i])
			}
		}
	}
}

// TestTokenizeCopiesAttrs verifies Tokenize returns tokens whose Attrs
// survive further scanning (they must not alias the reused buffer).
func TestTokenizeCopiesAttrs(t *testing.T) {
	toks := Tokenize(`<A HREF="one"><B></B><A HREF="two">`)
	if toks[0].Attrs[0].Value != "one" || toks[3].Attrs[0].Value != "two" {
		t.Errorf("attrs clobbered: %+v / %+v", toks[0].Attrs, toks[3].Attrs)
	}
}

// TestDoctypeExoticWhitespace pins DOCTYPE classification for ASCII
// whitespace variants between "<!" and the keyword.
func TestDoctypeExoticWhitespace(t *testing.T) {
	for _, src := range []string{
		"<!DOCTYPE HTML>", "<! DOCTYPE HTML>", "<!\tDOCTYPE HTML>",
		"<!\vDOCTYPE HTML>", "<!\fDOCTYPE\vHTML>",
	} {
		toks := Tokenize(src)
		if len(toks) != 1 || toks[0].Type != Doctype {
			t.Errorf("%q: got %v, want Doctype", src, toks[0].Type)
		}
	}
	if toks := Tokenize("<!DOCTYPES HTML>"); toks[0].Type != Declaration {
		t.Errorf("DOCTYPES prefix wrongly classified as Doctype")
	}
}
