// Package lsp implements a Language Server Protocol server over
// weblint's streaming diagnostics pipeline: the editor-facing surface
// the paper's workflow implies — catching HTML mistakes while the
// author types, not after deploy.
//
// The server speaks JSON-RPC 2.0 with LSP base-protocol framing over
// any reader/writer pair (stdio in cmd/weblint-lsp), hand-rolled — no
// dependency beyond the standard library. It handles
//
//	initialize / initialized / shutdown / exit
//	textDocument/didOpen | didChange | didClose
//	textDocument/codeAction
//	textDocument/diagnostic            (LSP 3.17 pull diagnostics)
//	workspace/didChangeConfiguration
//
// and pushes textDocument/publishDiagnostics a debounce delay after
// the last change. Sync is incremental (TextDocumentSyncKind 2). An
// open document's text has one owner, its lint.Session, which applies
// each range-scoped edit as it arrives: a keystroke re-lints only the
// damaged window and splices the cached findings around it, output
// byte-identical to a from-scratch lint. The debounce delays only the
// publish. Fix-carrying messages surface as quick-fix code actions,
// plus one source.fixAll action applying every fix in a single
// workspace edit.
//
// Each document's mutex guards all of its state. Server.mu guards the
// document map and the server flags; it may be taken while a
// document's mutex is held, never the reverse.
//
// Per-workspace configuration follows the CLI: the nearest .weblintrc
// up the directory tree from each document (stopping at the workspace
// folder root) configures that document's linter, rebuilt when the
// file changes; documents without one share the default linter.
package lsp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"weblint/internal/config"
	"weblint/internal/fixit"
	"weblint/internal/lint"
	"weblint/internal/textpos"
	"weblint/internal/warn"
)

// Options configures a Server.
type Options struct {
	// Linter is the shared default linter; nil builds one with default
	// settings.
	Linter *lint.Linter
	// DebounceDelay is how long after the last didChange the findings
	// are published. Zero means the 200ms default; negative publishes
	// synchronously on every change (used by tests).
	DebounceDelay time.Duration
	// Logf, when non-nil, receives server-side log lines (protocol
	// errors, configuration problems). The transport carries only
	// protocol traffic.
	Logf func(format string, args ...any)
}

const defaultDebounce = 200 * time.Millisecond

// document is one open editor buffer. Its text lives only in session,
// which applies each didChange as it arrives; the debounce timer only
// publishes. ix indexes the same text in the protocol's line
// convention, spliced on every change, because client positions count
// a lone CR as a line end and message lines do not.
//
// mu guards every field after it. Server.mu may be taken while mu is
// held, never the reverse; no goroutine holds two documents' mutexes.
type document struct {
	uri  string
	path string // filesystem path, or "" for non-file URIs
	name string // names the document in messages: path, else uri

	mu      sync.Mutex
	version int
	timer   *time.Timer // pending debounced publish

	// session is nil once the document is closed, and while it is
	// desynced: an unappliable incremental change arrived, so the
	// server no longer knows the content, its diagnostics were
	// retracted, and nothing is served until the client sends full
	// text again. linter built session, so a configuration change
	// (a different linter) rebuilds it rather than splices.
	session *lint.Session
	linter  *lint.Linter
	ix      *textpos.Index

	// Last analysis, consumed by codeAction: msgs[i] produced
	// diags[i], and analyzed records the version it was computed at —
	// codeAction refuses to serve edits for any other version.
	msgs     []warn.Message
	diags    []Diagnostic
	analyzed int
}

// apply (caller holds d.mu) replaces bytes [start, end) of the text
// with text: the session re-lints the damaged window, and the protocol
// index is spliced to match.
func (d *document) apply(start, end int, text string) {
	d.session.Apply([]lint.Edit{{Start: start, End: end, Text: text}})
	d.ix = d.ix.Splice(start, end, text, d.session.Text())
}

// forget (caller holds d.mu) cancels the pending publish and drops the
// text and the analysis.
func (d *document) forget() {
	if d.timer != nil {
		d.timer.Stop()
	}
	d.session, d.linter, d.ix = nil, nil, nil
	d.msgs, d.diags = nil, nil
}

// close forgets the document for good: a publish already scheduled
// finds nothing to send.
func (d *document) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.forget()
}

// Server is one LSP session. Construct with NewServer, then Run it
// over the transport.
type Server struct {
	opts    Options
	conn    *conn
	linters *linterCache

	// mu guards docs and the flags after it; see document for the order.
	mu       sync.Mutex
	docs     map[string]*document
	shutdown bool
}

// NewServer returns a server ready to Run.
func NewServer(opts Options) *Server {
	if opts.Linter == nil {
		opts.Linter = lint.MustNew(lint.Options{})
	}
	if opts.DebounceDelay == 0 {
		opts.DebounceDelay = defaultDebounce
	}
	return &Server{
		opts:    opts,
		linters: newLinterCache(opts.Linter, opts.Logf),
		docs:    map[string]*document{},
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Run serves the connection until the client sends exit or closes the
// stream. It returns nil on an orderly shutdown/exit (or EOF after
// shutdown) and the transport error otherwise.
func (s *Server) Run(r io.Reader, w io.Writer) error {
	s.conn = newConn(r, w)
	defer s.closeAll()
	for {
		m, err := s.conn.read()
		if err != nil {
			if perr, ok := err.(*protocolError); ok {
				// The frame was consumed; the stream is still usable.
				_ = s.conn.respondError(nil, perr.code, perr.msg)
				continue
			}
			if err == io.EOF {
				return nil
			}
			return err
		}
		if m.Method == "exit" {
			return nil
		}
		if err := s.dispatch(m); err != nil {
			return err
		}
	}
}

// closeAll closes every document so Run leaves no debounced publish
// firing after it returns.
func (s *Server) closeAll() {
	for _, d := range s.openDocs() {
		d.close()
	}
}

// openDocs returns the open documents.
func (s *Server) openDocs() []*document {
	s.mu.Lock()
	defer s.mu.Unlock()
	docs := make([]*document, 0, len(s.docs))
	for _, d := range s.docs {
		docs = append(docs, d)
	}
	return docs
}

// lookup returns the open document for uri, or nil.
func (s *Server) lookup(uri string) *document {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.docs[uri]
}

// dispatch handles one message. Returned errors are transport
// failures; protocol-level problems answer the client instead.
func (s *Server) dispatch(m *message) error {
	switch m.Method {
	case "initialize":
		var p initializeParams
		if err := json.Unmarshal(m.Params, &p); err != nil {
			return s.conn.respondError(m.ID, codeInvalidParams, err.Error())
		}
		s.setRoots(&p)
		return s.conn.respondJSON(m.ID, initializeResult{
			Capabilities: serverCapabilities{
				TextDocumentSync:   textDocumentSyncOptions{OpenClose: true, Change: 2},
				CodeActionProvider: true,
				DiagnosticProvider: &diagnosticOptions{},
			},
			ServerInfo: serverInfo{Name: "weblint-lsp", Version: "2.0"},
		})
	case "initialized":
		return nil
	case "shutdown":
		s.mu.Lock()
		s.shutdown = true
		s.mu.Unlock()
		return s.conn.respondJSON(m.ID, nil)
	case "textDocument/didOpen":
		var p didOpenParams
		if err := json.Unmarshal(m.Params, &p); err != nil {
			s.logf("didOpen: %v", err)
			return nil
		}
		s.openDocument(p.TextDocument)
		return nil
	case "textDocument/didChange":
		var p didChangeParams
		if err := json.Unmarshal(m.Params, &p); err != nil {
			s.logf("didChange: %v", err)
			return nil
		}
		s.changeDocument(&p)
		return nil
	case "textDocument/didClose":
		var p didCloseParams
		if err := json.Unmarshal(m.Params, &p); err != nil {
			s.logf("didClose: %v", err)
			return nil
		}
		s.closeDocument(p.TextDocument.URI)
		return nil
	case "textDocument/codeAction":
		var p codeActionParams
		if err := json.Unmarshal(m.Params, &p); err != nil {
			return s.conn.respondError(m.ID, codeInvalidParams, err.Error())
		}
		return s.conn.respondJSON(m.ID, s.codeActions(&p))
	case "textDocument/diagnostic":
		var p documentDiagnosticParams
		if err := json.Unmarshal(m.Params, &p); err != nil {
			return s.conn.respondError(m.ID, codeInvalidParams, err.Error())
		}
		// Pull diagnostics (3.17): answer with a full report of the
		// session's current findings. Edits were applied as they
		// arrived, so this only converts and encodes cached events.
		report := fullDocumentDiagnosticReport{Kind: "full", Items: s.pull(p.TextDocument.URI)}
		return s.conn.respond(m.ID, report.appendJSON)
	case "workspace/didChangeConfiguration":
		// The settings payload is opaque to weblint; what matters is
		// that .weblintrc interpretation may have changed. Drop every
		// cached rc linter (even when the file's mtime is unchanged)
		// and re-lint all open documents under the fresh resolution.
		s.linters.invalidate()
		for _, d := range s.openDocs() {
			s.publish(d)
		}
		return nil
	}
	if len(m.ID) != 0 {
		return s.conn.respondError(m.ID, codeMethodNotFound, "unhandled method "+m.Method)
	}
	// Unknown notifications ($/cancelRequest, client chatter) are
	// ignored, as the protocol requires.
	return nil
}

// setRoots records the workspace folders .weblintrc discovery stops
// at.
func (s *Server) setRoots(p *initializeParams) {
	var roots []string
	for _, f := range p.WorkspaceFolders {
		if path := uriToPath(f.URI); path != "" {
			roots = append(roots, path)
		}
	}
	if len(roots) == 0 {
		if path := uriToPath(p.RootURI); path != "" {
			roots = append(roots, path)
		} else if p.RootPath != "" {
			roots = append(roots, p.RootPath)
		}
	}
	s.linters.setRoots(roots)
}

// openDocument registers a buffer and lints it immediately: the first
// diagnostics should appear the moment a file opens, not a debounce
// later. Reopening a URI replaces its document.
func (s *Server) openDocument(td TextDocumentItem) {
	d := &document{uri: td.URI, path: uriToPath(td.URI), name: td.URI, version: td.Version}
	if d.path != "" {
		d.name = d.path
	}
	s.mu.Lock()
	prev := s.docs[td.URI]
	s.docs[td.URI] = d
	s.mu.Unlock()
	if prev != nil {
		prev.close()
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	s.startSession(d, td.Text)
	s.analyze(d, true)
}

// startSession (caller holds d.mu) lints text from scratch and indexes
// it, on open and on the full-text change that ends a desync.
func (s *Server) startSession(d *document, text string) {
	d.linter = s.linters.forPath(d.path)
	d.session = lint.NewSession(d.linter, d.name, text)
	d.ix = textpos.New(text)
}

// changeDocument applies a didChange — range-scoped incremental edits
// or rangeless full replacements, in order, each against the result
// of the previous — to the document's session as it arrives, and
// schedules a debounced publish. Each edit re-lints only its damaged
// window; a typing burst is published once, a short beat after the
// last keystroke.
func (s *Server) changeDocument(p *didChangeParams) {
	d := s.lookup(p.TextDocument.URI)
	if d == nil {
		s.logf("didChange for unopened %s", p.TextDocument.URI)
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, ch := range p.ContentChanges {
		switch {
		case ch.Range == nil && d.session == nil:
			s.startSession(d, ch.Text)
		case ch.Range == nil:
			d.apply(0, len(d.session.Text()), ch.Text)
		case d.session == nil:
			// Spans against a buffer we no longer know.
		default:
			start := d.ix.UTF16ToOffset(ch.Range.Start.Line, ch.Range.Start.Character)
			end := d.ix.UTF16ToOffset(ch.Range.End.Line, ch.Range.End.Character)
			if end < start {
				// A malformed change leaves the buffer content
				// unknowable. Serving diagnostics computed against a
				// guess would be silently wrong, so hard-resync:
				// retract everything and wait for the client to send
				// full text (didOpen or a rangeless change).
				s.desync(d)
				continue
			}
			d.apply(start, end, ch.Text)
		}
	}
	d.version = p.TextDocument.Version
	if len(p.ContentChanges) == 0 || d.session == nil {
		return
	}
	if s.opts.DebounceDelay < 0 {
		s.analyze(d, true)
		return
	}
	if d.timer != nil {
		d.timer.Stop()
	}
	d.timer = time.AfterFunc(s.opts.DebounceDelay, func() { s.publish(d) })
}

// desync (caller holds d.mu) marks a document as out of sync, drops
// its text and analysis, and retracts its diagnostics.
func (s *Server) desync(d *document) {
	d.forget()
	s.logf("resync required for %s: unappliable incremental change; diagnostics retracted", d.uri)
	s.sendDiagnostics(publishDiagnosticsParams{URI: d.uri, Diagnostics: []Diagnostic{}})
}

// closeDocument forgets a buffer and retracts its diagnostics.
func (s *Server) closeDocument(uri string) {
	s.mu.Lock()
	d := s.docs[uri]
	delete(s.docs, uri)
	s.mu.Unlock()
	if d == nil {
		return
	}
	d.close()
	s.sendDiagnostics(publishDiagnosticsParams{URI: uri, Diagnostics: []Diagnostic{}})
}

// sendDiagnostics pushes a publishDiagnostics notification; a transport
// failure is logged, since no request waits on it.
func (s *Server) sendDiagnostics(p publishDiagnosticsParams) {
	if err := s.conn.notify("textDocument/publishDiagnostics", p.appendJSON); err != nil {
		s.logf("publish: %v", err)
	}
}

// publish analyzes a document and pushes its diagnostics. It runs on
// a debounce timer's goroutine or, after a configuration change, on
// the dispatch goroutine; a document closed or desynced meanwhile
// publishes nothing.
func (s *Server) publish(d *document) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s.analyze(d, true)
}

// pull answers a textDocument/diagnostic request: the current
// diagnostics, or none for a document not open or desynced.
func (s *Server) pull(uri string) []Diagnostic {
	if d := s.lookup(uri); d != nil {
		d.mu.Lock()
		defer d.mu.Unlock()
		if diags, ok := s.analyze(d, false); ok {
			return diags
		}
	}
	return []Diagnostic{}
}

// analyze (caller holds d.mu) renders the session's findings as
// diagnostics and installs them for codeAction; when publish is true
// it also pushes them as publishDiagnostics. When the document's
// .weblintrc now resolves to another linter, the session is first
// rebuilt over the same text; the protocol index still fits. ok is
// false when the document is closed or desynced.
func (s *Server) analyze(d *document, publish bool) (diags []Diagnostic, ok bool) {
	if d.session == nil {
		return nil, false
	}
	if linter := s.linters.forPath(d.path); linter != d.linter {
		d.linter = linter
		d.session = lint.NewSession(linter, d.name, d.session.Text())
	}
	msgs := d.session.Messages()
	lf := d.session.Index()
	diags = make([]Diagnostic, len(msgs))
	for i, m := range msgs {
		diags[i] = diagnosticFor(m, lf, d.ix)
	}
	d.msgs, d.diags, d.analyzed = msgs, diags, d.version
	if publish {
		s.sendDiagnostics(publishDiagnosticsParams{URI: d.uri, Version: d.version, Diagnostics: diags})
	}
	return diags, true
}

// codeActions builds quick fixes for the fix-carrying diagnostics
// touching the requested range.
func (s *Server) codeActions(p *codeActionParams) []CodeAction {
	d := s.lookup(p.TextDocument.URI)
	if d == nil {
		return []CodeAction{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.session == nil || d.analyzed != d.version {
		// A didChange arrived after the last analysis (the debounced
		// re-lint hasn't landed yet): edit offsets computed against
		// the stale text could corrupt the client's buffer. Offer
		// nothing; the client re-requests after the next publish.
		return []CodeAction{}
	}
	actions := []CodeAction{}
	if wantKind(p.Context.Only, "quickfix") {
		for i, m := range d.msgs {
			if m.Fix == nil || !rangesTouch(d.diags[i].Range, p.Range) {
				continue
			}
			actions = append(actions, CodeAction{
				Title:       m.Fix.Label,
				Kind:        "quickfix",
				Diagnostics: []Diagnostic{d.diags[i]},
				IsPreferred: true,
				Edit: &WorkspaceEdit{Changes: map[string][]TextEdit{
					d.uri: editsToLSP(m.Fix.Edits, d.ix),
				}},
			})
		}
	}
	if wantKind(p.Context.Only, "source.fixAll") {
		if a := s.fixAllAction(d); a != nil {
			actions = append(actions, *a)
		}
	}
	return actions
}

// wantKind implements the codeAction Only filter: empty means
// everything; otherwise kind must equal a requested kind or fall under
// one as a sub-kind ("source" matches "source.fixAll").
func wantKind(only []string, kind string) bool {
	if len(only) == 0 {
		return true
	}
	for _, o := range only {
		if o == kind || strings.HasPrefix(kind, o+".") {
			return true
		}
	}
	return false
}

// fixAllAction builds the source.fixAll action: every attached fix
// applied at once through fixit.Apply — the same first-fix-wins engine
// the CLI's -fix flag uses, so apply-then-relint comes out clean. The
// edit replaces the whole document; computing minimal per-fix edits
// would re-implement fixit's conflict handling in range space for no
// client-visible benefit. Returns nil when nothing is fixable.
func (s *Server) fixAllAction(d *document) *CodeAction {
	text := d.session.Text()
	fixed, rep := fixit.Apply(text, d.msgs)
	if !rep.Changed() {
		return nil
	}
	el, ec := d.ix.OffsetToUTF16(len(text))
	return &CodeAction{
		Title: fmt.Sprintf("Apply all weblint fixes (%d)", rep.Applied),
		Kind:  "source.fixAll",
		Edit: &WorkspaceEdit{Changes: map[string][]TextEdit{
			d.uri: {{Range: Range{End: Position{el, ec}}, NewText: fixed}},
		}},
	}
}

// linterCache resolves the linter for a document path: the nearest
// .weblintrc up the tree (bounded by the workspace roots) configures
// a cached per-file linter, rebuilt when the file's mtime changes;
// everything else shares the default linter.
type linterCache struct {
	def  *lint.Linter
	logf func(string, ...any)

	mu    sync.Mutex
	roots []string
	byRC  map[string]*rcEntry
}

type rcEntry struct {
	linter *lint.Linter
	mtime  time.Time
}

func newLinterCache(def *lint.Linter, logf func(string, ...any)) *linterCache {
	return &linterCache{def: def, logf: logf, byRC: map[string]*rcEntry{}}
}

func (lc *linterCache) setRoots(roots []string) {
	lc.mu.Lock()
	lc.roots = roots
	lc.mu.Unlock()
}

// invalidate drops every cached rc linter so the next forPath
// re-reads and rebuilds, even when the rc file's mtime is unchanged —
// workspace/didChangeConfiguration must take effect regardless of
// filesystem timestamps.
func (lc *linterCache) invalidate() {
	lc.mu.Lock()
	clear(lc.byRC)
	lc.mu.Unlock()
}

// forPath returns the linter for a document path ("" means the
// default).
func (lc *linterCache) forPath(path string) *lint.Linter {
	if path == "" {
		return lc.def
	}
	lc.mu.Lock()
	defer lc.mu.Unlock()
	rc := lc.findRC(filepath.Dir(path))
	if rc == "" {
		return lc.def
	}
	st, err := os.Stat(rc)
	if err != nil {
		return lc.def
	}
	if e := lc.byRC[rc]; e != nil && e.mtime.Equal(st.ModTime()) {
		return e.linter
	}
	linter, err := buildRCLinter(rc)
	if err != nil {
		if lc.logf != nil {
			lc.logf("%s: %v (using default configuration)", rc, err)
		}
		linter = lc.def
	}
	lc.byRC[rc] = &rcEntry{linter: linter, mtime: st.ModTime()}
	return linter
}

// findRC walks from dir toward the root looking for .weblintrc,
// stopping at (and including) the first workspace root on the way, or
// at the filesystem root when the document is outside every
// workspace folder.
func (lc *linterCache) findRC(dir string) string {
	for {
		rc := filepath.Join(dir, ".weblintrc")
		if st, err := os.Stat(rc); err == nil && !st.IsDir() {
			return rc
		}
		for _, root := range lc.roots {
			if dir == filepath.Clean(root) {
				return ""
			}
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return ""
		}
		dir = parent
	}
}

// buildRCLinter builds a linter from one configuration file, the same
// way the CLI's -f flag does.
func buildRCLinter(rc string) (*lint.Linter, error) {
	cfg, err := config.ParseFile(rc)
	if err != nil {
		return nil, err
	}
	settings := config.NewSettings()
	if err := settings.Apply(cfg); err != nil {
		return nil, err
	}
	l, err := lint.New(lint.Options{Settings: settings})
	if err != nil {
		return nil, fmt.Errorf("building linter: %w", err)
	}
	return l, nil
}
