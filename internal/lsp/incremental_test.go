package lsp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"weblint/internal/lint"
)

// incremental_test.go covers the incremental-sync surface: range-scoped
// didChange, pull diagnostics, source.fixAll, configuration-change
// invalidation, and the hard-resync path for unappliable changes.

const incrDoc = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\">\n" +
	"<HTML>\n<HEAD>\n<TITLE>t</TITLE>\n" +
	"<META NAME=\"description\" CONTENT=\"d\">\n" +
	"<META NAME=\"keywords\" CONTENT=\"k\">\n" +
	"</HEAD>\n<BODY>\n" +
	"<P>x</P>\n" +
	"</BODY>\n</HTML>\n"

// change sends one didChange with the given content changes.
func (cl *client) change(uri string, version int, changes ...textDocumentContentChangeEvent) {
	cl.t.Helper()
	cl.notify("textDocument/didChange", didChangeParams{
		TextDocument:   VersionedTextDocumentIdentifier{URI: uri, Version: version},
		ContentChanges: changes,
	})
}

func rangeAt(sl, sc, el, ec int) *Range {
	return &Range{Start: Position{sl, sc}, End: Position{el, ec}}
}

// assertMatchesFullLint checks published diagnostics against a
// from-scratch lint of text: same count, codes, and lines.
func assertMatchesFullLint(t *testing.T, p publishDiagnosticsParams, name, text string) {
	t.Helper()
	want := lint.MustNew(lint.Options{}).CheckString(name, text)
	if len(p.Diagnostics) != len(want) {
		t.Fatalf("%d diagnostics, from-scratch lint says %d (%+v vs %+v)",
			len(p.Diagnostics), len(want), p.Diagnostics, want)
	}
	for i, d := range p.Diagnostics {
		if d.Code != want[i].ID || d.Range.Start.Line != want[i].Line-1 || d.Message != want[i].Text {
			t.Errorf("diag %d = %+v, want %s at line %d: %s", i, d, want[i].ID, want[i].Line-1, want[i].Text)
		}
	}
}

// TestIncrementalDidChange drives range-scoped edits through didChange
// and checks every publish against a from-scratch lint of the text the
// edits produce — the wire-level version of the Session's differential
// guarantee.
func TestIncrementalDidChange(t *testing.T) {
	cl := startServer(t, Options{DebounceDelay: -1})
	cl.initialize("")
	uri := "untitled:incr"
	cl.open(uri, incrDoc)
	if p := cl.waitDiagnostics(uri); len(p.Diagnostics) != 0 {
		t.Fatalf("open diagnostics = %+v", p.Diagnostics)
	}

	// Insert an ALT-less IMG after </P> on line 8 (0-based).
	img := "<IMG SRC=\"x.gif\">"
	cl.change(uri, 2, textDocumentContentChangeEvent{Range: rangeAt(8, 8, 8, 8), Text: img})
	text := strings.Replace(incrDoc, "<P>x</P>", "<P>x</P>"+img, 1)
	p := cl.waitDiagnostics(uri)
	if p.Version != 2 {
		t.Fatalf("published version = %d, want 2", p.Version)
	}
	assertMatchesFullLint(t, p, uri, text)
	if len(p.Diagnostics) != 1 || p.Diagnostics[0].Code != "img-alt" {
		t.Fatalf("diagnostics = %+v, want img-alt", p.Diagnostics)
	}

	// Two changes in one notification, the second positioned against
	// the result of the first (the LSP contract): turn </P> into <BP>
	// (an unclosed-element error), then fix the IMG's missing ALT.
	cl.change(uri, 3,
		textDocumentContentChangeEvent{Range: rangeAt(8, 5, 8, 6), Text: "B"},
		textDocumentContentChangeEvent{Range: rangeAt(8, 24, 8, 24), Text: " ALT=\"\""},
	)
	text = text[:lineColOffset(text, 8, 5)] + "B" + text[lineColOffset(text, 8, 6):]
	text = text[:lineColOffset(text, 8, 24)] + " ALT=\"\"" + text[lineColOffset(text, 8, 24):]
	assertMatchesFullLint(t, cl.waitDiagnostics(uri), uri, text)

	// Delete back to a clean document by replacing all of line 8.
	line8 := text[lineColOffset(text, 8, 0):]
	line8 = line8[:strings.IndexByte(line8, '\n')]
	cl.change(uri, 4, textDocumentContentChangeEvent{Range: rangeAt(8, 0, 8, len(line8)), Text: "<P>x</P>"})
	p = cl.waitDiagnostics(uri)
	assertMatchesFullLint(t, p, uri, incrDoc)
	if len(p.Diagnostics) != 0 {
		t.Fatalf("diagnostics after revert = %+v, want none", p.Diagnostics)
	}
}

// loneCRDoc ends two protocol lines with a lone CR, which message
// lines do not count: its img-alt finding sits on message line 3 but
// editor line 4.
const loneCRDoc = "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\">\n" +
	"<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\r<P>one</P>\r<P>two</P>\n" +
	"<IMG SRC=\"x.gif\">\n</BODY></HTML>\n"

// TestLoneCRDiagnosticLine: a finding after lone CRs is published on
// the line an editor shows it, and a ranged change addressed in the
// editor's lines reaches the bytes it names.
func TestLoneCRDiagnosticLine(t *testing.T) {
	cl := startServer(t, Options{DebounceDelay: -1})
	cl.initialize("")
	uri := "untitled:lonecr"
	cl.open(uri, loneCRDoc)
	p := cl.waitDiagnostics(uri)
	if len(p.Diagnostics) != 1 || p.Diagnostics[0].Code != "img-alt" {
		t.Fatalf("diagnostics = %+v, want img-alt", p.Diagnostics)
	}
	if got, want := p.Diagnostics[0].Range, *rangeAt(4, 0, 4, 17); got != want {
		t.Fatalf("img-alt range = %+v, want %+v (the IMG's editor line)", got, want)
	}
	cl.change(uri, 2, textDocumentContentChangeEvent{Range: rangeAt(4, 16, 4, 16), Text: ` ALT=""`})
	if p := cl.waitDiagnostics(uri); len(p.Diagnostics) != 0 {
		t.Fatalf("diagnostics after inserting ALT = %+v, want none", p.Diagnostics)
	}
}

// lineColOffset resolves a (0-based line, ASCII column) to a byte
// offset in text — the test documents are ASCII, so UTF-16 units are
// bytes.
func lineColOffset(text string, line, col int) int {
	off := 0
	for ; line > 0; line-- {
		off = strings.IndexByte(text[off:], '\n') + off + 1
	}
	return off + col
}

// TestPullDiagnostics: textDocument/diagnostic answers a full report
// matching the pushed diagnostics.
func TestPullDiagnostics(t *testing.T) {
	cl := startServer(t, Options{DebounceDelay: -1})
	cl.initialize("")
	uri := "untitled:pull"
	doc := strings.Replace(incrDoc, "<P>x</P>", "<P>x<IMG SRC=\"x.gif\"></P>", 1)
	cl.open(uri, doc)
	pushed := cl.waitDiagnostics(uri)

	resp := cl.call("textDocument/diagnostic", documentDiagnosticParams{
		TextDocument: TextDocumentIdentifier{URI: uri},
	})
	if resp.Error != nil {
		t.Fatalf("diagnostic: %+v", resp.Error)
	}
	var rep fullDocumentDiagnosticReport
	if err := json.Unmarshal(resp.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "full" {
		t.Fatalf("report kind = %q, want full", rep.Kind)
	}
	if len(rep.Items) != len(pushed.Diagnostics) {
		t.Fatalf("pull returned %d items, push had %d", len(rep.Items), len(pushed.Diagnostics))
	}
	for i, d := range rep.Items {
		if d.Code != pushed.Diagnostics[i].Code || d.Range != pushed.Diagnostics[i].Range {
			t.Errorf("pull item %d = %+v, push had %+v", i, d, pushed.Diagnostics[i])
		}
	}

	// Unknown documents answer an empty full report, not an error.
	resp = cl.call("textDocument/diagnostic", documentDiagnosticParams{
		TextDocument: TextDocumentIdentifier{URI: "untitled:never-opened"},
	})
	if resp.Error != nil {
		t.Fatalf("diagnostic for unopened: %+v", resp.Error)
	}
	if err := json.Unmarshal(resp.Result, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Kind != "full" || len(rep.Items) != 0 {
		t.Errorf("unopened pull = %+v, want empty full report", rep)
	}
}

// TestFixAllCodeAction: Only=[source.fixAll] yields exactly one
// document-wide action whose edit, applied the way an editor would,
// re-lints clean — and suppresses the individual quick fixes.
func TestFixAllCodeAction(t *testing.T) {
	doc := strings.Replace(incrDoc, "<P>x</P>",
		"<P>x<IMG SRC=\"a.gif\"><IMG SRC=\"b.gif\"></P>", 1)
	cl := startServer(t, Options{DebounceDelay: -1})
	cl.initialize("")
	uri := "untitled:fixall"
	cl.open(uri, doc)
	p := cl.waitDiagnostics(uri)
	if len(p.Diagnostics) != 2 {
		t.Fatalf("diagnostics = %+v, want two img-alt", p.Diagnostics)
	}

	resp := cl.call("textDocument/codeAction", codeActionParams{
		TextDocument: TextDocumentIdentifier{URI: uri},
		Range:        p.Diagnostics[0].Range,
		Context:      codeActionContext{Only: []string{"source.fixAll"}},
	})
	if resp.Error != nil {
		t.Fatalf("codeAction: %+v", resp.Error)
	}
	var actions []CodeAction
	if err := json.Unmarshal(resp.Result, &actions); err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].Kind != "source.fixAll" {
		t.Fatalf("actions = %+v, want one source.fixAll", actions)
	}
	fixed := ApplyTextEdits(doc, actions[0].Edit.Changes[uri])
	if msgs := lint.MustNew(lint.Options{}).CheckString("fixed.html", fixed); len(msgs) != 0 {
		t.Errorf("fixAll result still lints dirty: %v", msgs)
	}
}

// TestDidChangeConfigurationInvalidates: a workspace/
// didChangeConfiguration must re-read .weblintrc even when the file's
// mtime did not move — the mtime-keyed cache alone would serve the
// stale linter forever.
func TestDidChangeConfigurationInvalidates(t *testing.T) {
	ws := t.TempDir()
	rc := filepath.Join(ws, ".weblintrc")
	if err := os.WriteFile(rc, []byte("disable img-alt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(rc)
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(incrDoc, "<P>x</P>", "<P>x<IMG SRC=\"x.gif\"></P>", 1)

	cl := startServer(t, Options{DebounceDelay: -1})
	cl.initialize(ws)
	uri := "file://" + filepath.Join(ws, "in.html")
	cl.open(uri, doc)
	if p := cl.waitDiagnostics(uri); len(p.Diagnostics) != 0 {
		t.Fatalf("rc not applied on open: %+v", p.Diagnostics)
	}

	// Rewrite the rc but pin the mtime back: only the configuration
	// notification can surface the change.
	if err := os.WriteFile(rc, []byte("# nothing disabled\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(rc, st.ModTime(), st.ModTime()); err != nil {
		t.Fatal(err)
	}
	cl.notify("workspace/didChangeConfiguration", map[string]any{"settings": map[string]any{}})
	p := cl.waitDiagnostics(uri)
	if len(p.Diagnostics) != 1 || p.Diagnostics[0].Code != "img-alt" {
		t.Errorf("configuration change not picked up: %+v", p.Diagnostics)
	}
}

// TestHardResyncOnMalformedChange: an unappliable incremental change
// (reversed range) must retract diagnostics and refuse to serve
// anything — never silently keep publishing against guessed text —
// until the client re-sends full content.
func TestHardResyncOnMalformedChange(t *testing.T) {
	cl := startServer(t, Options{DebounceDelay: -1})
	cl.initialize("")
	uri := "untitled:resync"
	cl.open(uri, "<B>unclosed")
	if p := cl.waitDiagnostics(uri); len(p.Diagnostics) == 0 {
		t.Fatal("expected diagnostics for a broken doc")
	}

	// Reversed range: end precedes start.
	cl.change(uri, 2, textDocumentContentChangeEvent{Range: rangeAt(0, 5, 0, 2), Text: "x"})
	if p := cl.waitDiagnostics(uri); len(p.Diagnostics) != 0 {
		t.Fatalf("desync did not retract diagnostics: %+v", p.Diagnostics)
	}

	// While desynced: incremental changes are unappliable, code
	// actions are refused, pulls come back empty.
	cl.change(uri, 3, textDocumentContentChangeEvent{Range: rangeAt(0, 0, 0, 0), Text: "y"})
	if m := cl.tryNext(100 * time.Millisecond); m != nil {
		t.Fatalf("desynced document still publishing: %+v", m)
	}
	resp := cl.call("textDocument/codeAction", codeActionParams{
		TextDocument: TextDocumentIdentifier{URI: uri},
		Range:        Range{},
	})
	var actions []CodeAction
	if err := json.Unmarshal(resp.Result, &actions); err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Errorf("desynced document served code actions: %+v", actions)
	}

	// A rangeless (full) change recovers.
	cl.change(uri, 4, textDocumentContentChangeEvent{Text: "<B>unclosed"})
	if p := cl.waitDiagnostics(uri); len(p.Diagnostics) == 0 {
		t.Error("full-sync change did not recover from desync")
	}
}

// TestConcurrentIncrementalBursts hammers the session write-back paths
// under the race detector: rapid incremental appends on two documents
// with a tiny debounce, interleaved with full replacements.
func TestConcurrentIncrementalBursts(t *testing.T) {
	cl := startServer(t, Options{DebounceDelay: time.Millisecond})
	cl.initialize("")
	uris := []string{"untitled:i1", "untitled:i2"}
	base := "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</BODY></HTML>"
	for _, uri := range uris {
		cl.open(uri, base)
	}
	for v := 2; v < 30; v++ {
		for _, uri := range uris {
			if v%7 == 0 {
				cl.change(uri, v, textDocumentContentChangeEvent{Text: base})
				continue
			}
			// Column 1<<20 clamps to end of line 0 = end of document.
			cl.change(uri, v, textDocumentContentChangeEvent{Range: rangeAt(0, 1<<20, 0, 1<<20), Text: "<!--c-->"})
		}
	}
	for cl.tryNext(200*time.Millisecond) != nil {
	}
	if resp := cl.call("shutdown", nil); resp.Error != nil {
		t.Fatalf("shutdown after burst: %+v", resp.Error)
	}
}
