package lsp

import (
	"bytes"
	"encoding/json"
	"testing"

	"weblint/internal/lint"
	"weblint/internal/textpos"
)

// fuzzInserts is what a fuzzed edit may insert: line separators of
// both conventions, markup that opens and closes findings, and runes
// of every UTF-16 width.
var fuzzInserts = []string{
	"", "x", "\r", "\n", "\r\n", "\rx\n", "<P>", "</P>", `<IMG SRC="x.gif">`,
	` ALT=""`, "<!--", "-->", "é", "😀", "\xff",
}

// FuzzDidChange drives the editor path end to end: it opens a text in
// an in-process server, sends each fuzzed edit as a ranged didChange,
// and pulls diagnostics after each. Every pull, and the publish each
// change triggers, must equal a reference built without the server:
// the same edits applied one at a time with ApplyTextEdits, a
// from-scratch lint of the result, and diagnosticFor over fresh LF and
// protocol indexes of it.
//
// script holds five bytes per edit: start line and character, end line
// and character, and an index into fuzzInserts. The two positions are
// put in order, so no edit is malformed. Text travels as JSON, which
// turns each invalid UTF-8 byte into U+FFFD; the reference starts from
// what the server receives.
func FuzzDidChange(f *testing.F) {
	f.Add(loneCRDoc, []byte{4, 16, 4, 16, 9})
	// Pulls a CRLF pair apart, then joins a lone CR to a following LF.
	f.Add("<P>a\r\n<P>b\rc\nd", []byte{0, 4, 1, 0, 5, 3, 0, 3, 1, 0})
	f.Add("<P>é😀\xff\r\n<IMG SRC=\"x.gif\">\r<B>x\n</P>", []byte{1, 16, 1, 16, 9, 0, 2, 0, 3, 13, 2, 9, 0, 9, 8})
	l := lint.MustNew(lint.Options{})
	f.Fuzz(func(t *testing.T, text string, script []byte) {
		if len(text) > 1<<12 || len(script) > 5*16 {
			t.Skip()
		}
		text = onWire(t, text)
		cl := startServer(t, Options{Linter: l, DebounceDelay: -1})
		cl.initialize("")
		uri := "untitled:fuzz.html"
		cl.open(uri, text)
		check := func(what string) {
			t.Helper()
			msgs := l.CheckString(uri, text)
			lf, ix := textpos.NewLF(text), textpos.New(text)
			want := fullDocumentDiagnosticReport{Kind: "full", Items: make([]Diagnostic, len(msgs))}
			for i, m := range msgs {
				want.Items[i] = diagnosticFor(m, lf, ix)
			}
			if got, ref := mustJSON(t, cl.waitDiagnostics(uri).Diagnostics), mustJSON(t, want.Items); !bytes.Equal(got, ref) {
				t.Fatalf("%s: publish diverged on %q\nserver:    %s\nreference: %s", what, text, got, ref)
			}
			resp := cl.call("textDocument/diagnostic", documentDiagnosticParams{
				TextDocument: TextDocumentIdentifier{URI: uri},
			})
			if ref := mustJSON(t, want); !bytes.Equal(resp.Result, ref) {
				t.Fatalf("%s: pull diverged on %q\nserver:    %s\nreference: %s", what, text, resp.Result, ref)
			}
		}
		check("open")
		for v := 2; len(script) >= 5; v, script = v+1, script[5:] {
			lines := textpos.New(text).LineCount() + 1
			a := Position{int(script[0]) % lines, int(script[1]) % 32}
			b := Position{int(script[2]) % lines, int(script[3]) % 32}
			if posCmp(b, a) < 0 {
				a, b = b, a
			}
			e := TextEdit{Range: Range{Start: a, End: b}, NewText: onWire(t, fuzzInserts[int(script[4])%len(fuzzInserts)])}
			cl.change(uri, v, textDocumentContentChangeEvent{Range: &e.Range, Text: e.NewText})
			text = ApplyTextEdits(text, []TextEdit{e})
			check("after " + string(mustJSON(t, e)))
		}
	})
}

// onWire returns s as a server reads it from a JSON message.
func onWire(t *testing.T, s string) string {
	var out string
	if err := json.Unmarshal(mustJSON(t, s), &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func mustJSON(t *testing.T, v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
