package lsp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"weblint/internal/lint"
	"weblint/internal/warn"
)

// client drives a Server over in-memory pipes the way an editor
// would: requests and notifications go down one pipe, and a pump
// goroutine feeds everything the server says into a channel the
// helpers select on.
type client struct {
	t     *testing.T
	out   *conn // write half toward the server
	msgs  chan *message
	runE  chan error
	id    int
	queue []*message // notifications read while waiting for responses
}

func startServer(t *testing.T, opts Options) *client {
	t.Helper()
	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	s := NewServer(opts)
	runE := make(chan error, 1)
	go func() {
		runE <- s.Run(inR, outW)
		_ = outW.Close()
	}()
	cl := &client{
		t:    t,
		out:  newConn(strings.NewReader(""), inW),
		msgs: make(chan *message, 64),
		runE: runE,
	}
	reader := newConn(outR, io.Discard)
	go func() {
		for {
			m, err := reader.read()
			if err != nil {
				close(cl.msgs)
				return
			}
			cl.msgs <- m
		}
	}()
	t.Cleanup(func() {
		_ = inW.Close()
		_ = inR.Close()
		_ = outR.Close()
	})
	return cl
}

// next returns the next server message, failing after timeout.
func (cl *client) next(timeout time.Duration) *message {
	cl.t.Helper()
	if len(cl.queue) > 0 {
		m := cl.queue[0]
		cl.queue = cl.queue[1:]
		return m
	}
	select {
	case m, ok := <-cl.msgs:
		if !ok {
			cl.t.Fatal("server closed the stream")
		}
		return m
	case <-time.After(timeout):
		cl.t.Fatal("timed out waiting for a server message")
	}
	return nil
}

// tryNext returns the next message or nil after timeout (for
// asserting silence).
func (cl *client) tryNext(timeout time.Duration) *message {
	if len(cl.queue) > 0 {
		m := cl.queue[0]
		cl.queue = cl.queue[1:]
		return m
	}
	select {
	case m := <-cl.msgs:
		return m
	case <-time.After(timeout):
		return nil
	}
}

// call sends a request and returns its response, queueing any
// notifications that arrive first.
func (cl *client) call(method string, params any) *message {
	cl.t.Helper()
	cl.id++
	raw, err := json.Marshal(params)
	if err != nil {
		cl.t.Fatal(err)
	}
	id := json.RawMessage(fmt.Sprintf("%d", cl.id))
	if err := cl.out.write(&message{ID: id, Method: method, Params: raw}); err != nil {
		cl.t.Fatal(err)
	}
	for {
		m := cl.next(5 * time.Second)
		if len(m.ID) != 0 && string(m.ID) == string(id) && m.Method == "" {
			return m
		}
		cl.queue = append(cl.queue, m)
	}
}

func (cl *client) notify(method string, params any) {
	cl.t.Helper()
	raw, err := json.Marshal(params)
	if err != nil {
		cl.t.Fatal(err)
	}
	if err := cl.out.write(&message{Method: method, Params: raw}); err != nil {
		cl.t.Fatal(err)
	}
}

// waitDiagnostics waits for the next publishDiagnostics for uri.
func (cl *client) waitDiagnostics(uri string) publishDiagnosticsParams {
	cl.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m := cl.next(5 * time.Second)
		if m.Method != "textDocument/publishDiagnostics" {
			continue // unrelated server traffic
		}
		var p publishDiagnosticsParams
		if err := json.Unmarshal(m.Params, &p); err != nil {
			cl.t.Fatal(err)
		}
		if p.URI == uri {
			return p
		}
	}
	cl.t.Fatal("no publishDiagnostics arrived")
	return publishDiagnosticsParams{}
}

func (cl *client) initialize(rootPath string) {
	cl.t.Helper()
	params := map[string]any{}
	if rootPath != "" {
		params["workspaceFolders"] = []map[string]any{{"uri": "file://" + rootPath, "name": "ws"}}
	}
	resp := cl.call("initialize", params)
	if resp.Error != nil {
		cl.t.Fatalf("initialize: %+v", resp.Error)
	}
	var res initializeResult
	if err := json.Unmarshal(resp.Result, &res); err != nil {
		cl.t.Fatal(err)
	}
	if !res.Capabilities.CodeActionProvider || res.Capabilities.TextDocumentSync.Change != 2 ||
		res.Capabilities.DiagnosticProvider == nil {
		cl.t.Fatalf("capabilities = %+v", res.Capabilities)
	}
	cl.notify("initialized", map[string]any{})
}

func (cl *client) open(uri, text string) {
	cl.t.Helper()
	cl.notify("textDocument/didOpen", didOpenParams{
		TextDocument: TextDocumentItem{URI: uri, Version: 1, Text: text},
	})
}

// suiteSample loads one sample from the shared test suite.
func suiteSample(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "lint", "testdata", "suite", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestDidOpenRoundTrip is the acceptance round trip: didOpen a suite
// sample, receive publishDiagnostics whose IDs and lines match the
// linter's own CheckStringTo output for the same document.
func TestDidOpenRoundTrip(t *testing.T) {
	src := suiteSample(t, "meta-in-body.html")
	cl := startServer(t, Options{})
	cl.initialize("")
	uri := "file:///ws/meta-in-body.html"
	cl.open(uri, src)
	p := cl.waitDiagnostics(uri)

	var col warn.Collector
	lint.MustNew(lint.Options{}).CheckStringTo("/ws/meta-in-body.html", src, &col)
	want := col.Messages
	warn.SortByLine(want)

	if len(p.Diagnostics) != len(want) {
		t.Fatalf("%d diagnostics, linter says %d", len(p.Diagnostics), len(want))
	}
	for i, d := range p.Diagnostics {
		if d.Code != want[i].ID {
			t.Errorf("diag %d code = %s, want %s", i, d.Code, want[i].ID)
		}
		if d.Range.Start.Line != want[i].Line-1 {
			t.Errorf("diag %d line = %d, want %d", i, d.Range.Start.Line, want[i].Line-1)
		}
		if d.Source != "weblint" || d.Message != want[i].Text {
			t.Errorf("diag %d = %+v", i, d)
		}
	}
}

// TestSeverityMapping: error/warning/style map to LSP 1/2/3.
func TestSeverityMapping(t *testing.T) {
	cl := startServer(t, Options{})
	cl.initialize("")
	uri := "untitled:sev"
	// unmatched-close is an error; img-alt a warning.
	cl.open(uri, "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><IMG SRC=\"x.gif\"></B></BODY></HTML>")
	p := cl.waitDiagnostics(uri)
	bySev := map[string]int{}
	for _, d := range p.Diagnostics {
		bySev[d.Code] = d.Severity
	}
	if bySev["unmatched-close"] != SeverityError {
		t.Errorf("unmatched-close severity = %d", bySev["unmatched-close"])
	}
	if bySev["img-alt"] != SeverityWarning {
		t.Errorf("img-alt severity = %d", bySev["img-alt"])
	}
}

// TestCodeActionFixAppliesClean is the acceptance quick-fix check: the
// code action for a fixable diagnostic carries an edit that, applied
// the way an editor would, re-lints clean. The document leads with an
// astral-plane char on the IMG's line, so the byte->UTF-16 conversion
// is load-bearing, not incidental.
func TestCodeActionFixAppliesClean(t *testing.T) {
	src := "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\">\n" +
		"<HTML>\n<HEAD>\n<TITLE>t</TITLE>\n" +
		"<META NAME=\"description\" CONTENT=\"d\">\n" +
		"<META NAME=\"keywords\" CONTENT=\"k\">\n" +
		"</HEAD>\n<BODY>\n" +
		"😀🎉 <IMG SRC=\"x.gif\">\n" +
		"</BODY>\n</HTML>\n"
	cl := startServer(t, Options{})
	cl.initialize("")
	uri := "untitled:fixme"
	cl.open(uri, src)
	p := cl.waitDiagnostics(uri)
	if len(p.Diagnostics) != 1 || p.Diagnostics[0].Code != "img-alt" {
		t.Fatalf("diagnostics = %+v, want exactly img-alt", p.Diagnostics)
	}

	resp := cl.call("textDocument/codeAction", codeActionParams{
		TextDocument: TextDocumentIdentifier{URI: uri},
		Range:        p.Diagnostics[0].Range,
	})
	if resp.Error != nil {
		t.Fatalf("codeAction: %+v", resp.Error)
	}
	var actions []CodeAction
	if err := json.Unmarshal(resp.Result, &actions); err != nil {
		t.Fatal(err)
	}
	// Expect the quick fix plus the document-wide source.fixAll.
	var quick []CodeAction
	for _, a := range actions {
		if a.Kind == "quickfix" {
			quick = append(quick, a)
		}
	}
	if len(quick) != 1 {
		t.Fatalf("%d quickfix actions in %+v, want 1", len(quick), actions)
	}
	a := quick[0]
	if a.Title != `insert ALT=""` {
		t.Errorf("action = %+v", a)
	}
	edits := a.Edit.Changes[uri]
	if len(edits) == 0 {
		t.Fatal("action carries no edits")
	}

	fixed := ApplyTextEdits(src, edits)
	if msgs := lint.MustNew(lint.Options{}).CheckString("fixed.html", fixed); len(msgs) != 0 {
		t.Errorf("fixed document still lints dirty: %v", msgs)
	}
}

// TestDidChangeDebounce: a typing burst produces one publish, of the
// final content and tagged with the final version. Each change is
// linted as it arrives; the debounce delays only the publish.
func TestDidChangeDebounce(t *testing.T) {
	cl := startServer(t, Options{DebounceDelay: 50 * time.Millisecond})
	cl.initialize("")
	uri := "untitled:burst"
	clean := "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\"><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</BODY></HTML>"
	cl.open(uri, clean)
	if p := cl.waitDiagnostics(uri); len(p.Diagnostics) != 0 {
		t.Fatalf("open diagnostics = %+v", p.Diagnostics)
	}
	for v := 2; v <= 4; v++ {
		text := clean
		if v == 4 {
			text = strings.Replace(clean, "<P>x", "<P>x<IMG SRC=\"x.gif\">", 1)
		}
		cl.notify("textDocument/didChange", didChangeParams{
			TextDocument:   VersionedTextDocumentIdentifier{URI: uri, Version: v},
			ContentChanges: []textDocumentContentChangeEvent{{Text: text}},
		})
	}
	p := cl.waitDiagnostics(uri)
	if p.Version != 4 {
		t.Errorf("published version = %d, want 4 (the last change)", p.Version)
	}
	found := false
	for _, d := range p.Diagnostics {
		if d.Code == "img-alt" {
			found = true
		}
	}
	if !found {
		t.Errorf("final content's diagnostic missing: %+v", p.Diagnostics)
	}
	if extra := cl.tryNext(150 * time.Millisecond); extra != nil {
		t.Errorf("unexpected extra message after the debounced publish: %+v", extra)
	}
}

// TestDidCloseClearsDiagnostics: closing retracts with an empty list.
func TestDidCloseClearsDiagnostics(t *testing.T) {
	cl := startServer(t, Options{})
	cl.initialize("")
	uri := "untitled:closing"
	cl.open(uri, "<B>unclosed")
	if p := cl.waitDiagnostics(uri); len(p.Diagnostics) == 0 {
		t.Fatal("expected diagnostics for a broken doc")
	}
	cl.notify("textDocument/didClose", didCloseParams{TextDocument: TextDocumentIdentifier{URI: uri}})
	if p := cl.waitDiagnostics(uri); len(p.Diagnostics) != 0 {
		t.Errorf("close did not clear diagnostics: %+v", p.Diagnostics)
	}
}

// TestWeblintrcDiscovery: a document under a workspace folder with a
// .weblintrc is linted under that configuration; a document outside
// uses the defaults; editing the rc file takes effect (mtime-keyed
// cache).
func TestWeblintrcDiscovery(t *testing.T) {
	ws := t.TempDir()
	sub := filepath.Join(ws, "pages")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	rc := filepath.Join(ws, ".weblintrc")
	if err := os.WriteFile(rc, []byte("disable img-alt\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\"><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x<IMG SRC=\"x.gif\"></BODY></HTML>"

	cl := startServer(t, Options{DebounceDelay: -1})
	cl.initialize(ws)

	inURI := "file://" + filepath.Join(sub, "in.html")
	cl.open(inURI, doc)
	if p := cl.waitDiagnostics(inURI); len(p.Diagnostics) != 0 {
		t.Errorf("workspace rc not applied: %+v", p.Diagnostics)
	}

	outURI := "file://" + filepath.Join(t.TempDir(), "out.html")
	cl.open(outURI, doc)
	p := cl.waitDiagnostics(outURI)
	if len(p.Diagnostics) != 1 || p.Diagnostics[0].Code != "img-alt" {
		t.Errorf("outside-workspace diagnostics = %+v, want img-alt", p.Diagnostics)
	}

	// Edit the rc: the next lint rebuilds the linter.
	if err := os.WriteFile(rc, []byte("# nothing disabled\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	past := time.Now().Add(2 * time.Second)
	if err := os.Chtimes(rc, past, past); err != nil {
		t.Fatal(err)
	}
	cl.notify("textDocument/didChange", didChangeParams{
		TextDocument:   VersionedTextDocumentIdentifier{URI: inURI, Version: 2},
		ContentChanges: []textDocumentContentChangeEvent{{Text: doc}},
	})
	if p := cl.waitDiagnostics(inURI); len(p.Diagnostics) != 1 {
		t.Errorf("rc edit not picked up: %+v", p.Diagnostics)
	}
}

// TestShutdownExit: shutdown answers null; exit ends Run cleanly.
func TestShutdownExit(t *testing.T) {
	cl := startServer(t, Options{})
	cl.initialize("")
	resp := cl.call("shutdown", nil)
	if resp.Error != nil || string(resp.Result) != "null" {
		t.Fatalf("shutdown response = %+v", resp)
	}
	cl.notify("exit", nil)
	select {
	case err := <-cl.runE:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not exit")
	}
}

// TestUnknownMethod: unknown requests get MethodNotFound; unknown
// notifications are ignored.
func TestUnknownMethod(t *testing.T) {
	cl := startServer(t, Options{})
	cl.initialize("")
	resp := cl.call("workspace/definitelyNot", map[string]any{})
	if resp.Error == nil || resp.Error.Code != codeMethodNotFound {
		t.Fatalf("response = %+v", resp)
	}
	cl.notify("$/cancelRequest", map[string]any{"id": 1})
	// Still alive:
	if resp := cl.call("shutdown", nil); resp.Error != nil {
		t.Fatal("server died after unknown notification")
	}
}

// TestConcurrentChangeBursts exercises the timer/dispatch
// interleaving under the race detector: two documents, rapid change
// bursts, tiny debounce.
func TestConcurrentChangeBursts(t *testing.T) {
	cl := startServer(t, Options{DebounceDelay: time.Millisecond})
	cl.initialize("")
	uris := []string{"untitled:r1", "untitled:r2"}
	doc := "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\"><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x</BODY></HTML>"
	for _, uri := range uris {
		cl.open(uri, doc)
	}
	for v := 2; v < 30; v++ {
		for _, uri := range uris {
			cl.notify("textDocument/didChange", didChangeParams{
				TextDocument:   VersionedTextDocumentIdentifier{URI: uri, Version: v},
				ContentChanges: []textDocumentContentChangeEvent{{Text: doc + strings.Repeat(" ", v%3)}},
			})
		}
	}
	// Drain until the stream goes quiet; the race detector is the
	// real assertion here.
	for cl.tryNext(200*time.Millisecond) != nil {
	}
	if resp := cl.call("shutdown", nil); resp.Error != nil {
		t.Fatalf("shutdown after burst: %+v", resp.Error)
	}
}

// TestCodeActionStaleAnalysisRefused: between a didChange and its
// debounced re-lint, edits computed against the old text could
// corrupt the client's buffer — the server must offer nothing.
func TestCodeActionStaleAnalysisRefused(t *testing.T) {
	cl := startServer(t, Options{DebounceDelay: 5 * time.Second})
	cl.initialize("")
	uri := "untitled:stale"
	doc := "<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><P>x<IMG SRC=\"x.gif\"></BODY></HTML>"
	cl.open(uri, doc)
	p := cl.waitDiagnostics(uri)
	if len(p.Diagnostics) == 0 {
		t.Fatal("expected diagnostics")
	}
	act := func() []CodeAction {
		resp := cl.call("textDocument/codeAction", codeActionParams{
			TextDocument: TextDocumentIdentifier{URI: uri},
			Range:        p.Diagnostics[0].Range,
		})
		var actions []CodeAction
		if err := json.Unmarshal(resp.Result, &actions); err != nil {
			t.Fatal(err)
		}
		return actions
	}
	if len(act()) == 0 {
		t.Fatal("fresh analysis offered no actions")
	}
	cl.notify("textDocument/didChange", didChangeParams{
		TextDocument:   VersionedTextDocumentIdentifier{URI: uri, Version: 2},
		ContentChanges: []textDocumentContentChangeEvent{{Text: "\n" + doc}},
	})
	if got := act(); len(got) != 0 {
		t.Errorf("stale analysis served %d actions; edits would be offset against the new text", len(got))
	}
}
