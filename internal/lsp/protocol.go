package lsp

// protocol.go declares the slice of the Language Server Protocol the
// server speaks, 3.x wire shapes. Only the fields weblint reads or
// writes are declared; unknown fields are ignored by encoding/json,
// which is exactly the forward-compatibility the protocol intends.
// The two payloads that carry every diagnostic, a pull's report and a
// publish's params, encode themselves by hand; the rest go through
// encoding/json.

import (
	"strconv"

	"weblint/internal/render"
)

// Position is a 0-based (line, UTF-16 code unit) document position —
// the protocol's default position encoding.
type Position struct {
	Line      int `json:"line"`
	Character int `json:"character"`
}

// Range is a half-open [start, end) span.
type Range struct {
	Start Position `json:"start"`
	End   Position `json:"end"`
}

// Diagnostic severities.
const (
	SeverityError       = 1
	SeverityWarning     = 2
	SeverityInformation = 3
	SeverityHint        = 4
)

// Diagnostic is one published finding.
type Diagnostic struct {
	Range    Range  `json:"range"`
	Severity int    `json:"severity,omitempty"`
	Code     string `json:"code,omitempty"`
	Source   string `json:"source,omitempty"`
	Message  string `json:"message"`
}

// TextDocumentItem is the full document sent with didOpen.
type TextDocumentItem struct {
	URI     string `json:"uri"`
	Version int    `json:"version"`
	Text    string `json:"text"`
}

// TextDocumentIdentifier names a document.
type TextDocumentIdentifier struct {
	URI string `json:"uri"`
}

// VersionedTextDocumentIdentifier names a document at a version.
type VersionedTextDocumentIdentifier struct {
	URI     string `json:"uri"`
	Version int    `json:"version"`
}

// WorkspaceFolder is one root the client has open.
type WorkspaceFolder struct {
	URI  string `json:"uri"`
	Name string `json:"name"`
}

type initializeParams struct {
	RootURI          string            `json:"rootUri"`
	RootPath         string            `json:"rootPath"`
	WorkspaceFolders []WorkspaceFolder `json:"workspaceFolders"`
}

type initializeResult struct {
	Capabilities serverCapabilities `json:"capabilities"`
	ServerInfo   serverInfo         `json:"serverInfo"`
}

type serverInfo struct {
	Name    string `json:"name"`
	Version string `json:"version"`
}

type serverCapabilities struct {
	TextDocumentSync   textDocumentSyncOptions `json:"textDocumentSync"`
	CodeActionProvider bool                    `json:"codeActionProvider"`
	// DiagnosticProvider advertises LSP 3.17 pull diagnostics
	// (textDocument/diagnostic).
	DiagnosticProvider *diagnosticOptions `json:"diagnosticProvider,omitempty"`
}

type textDocumentSyncOptions struct {
	OpenClose bool `json:"openClose"`
	// Change 2 = incremental sync: didChange carries range-scoped
	// edits, applied through the lint.Session so only the damaged
	// window is re-linted. Clients may still send a rangeless change
	// to replace the whole document (the protocol allows mixing).
	Change int `json:"change"`
}

// diagnosticOptions is the 3.17 diagnostic registration: weblint
// diagnostics are per-document and the server has no workspace-wide
// pull.
type diagnosticOptions struct {
	InterFileDependencies bool `json:"interFileDependencies"`
	WorkspaceDiagnostics  bool `json:"workspaceDiagnostics"`
}

type didOpenParams struct {
	TextDocument TextDocumentItem `json:"textDocument"`
}

type didChangeParams struct {
	TextDocument   VersionedTextDocumentIdentifier  `json:"textDocument"`
	ContentChanges []textDocumentContentChangeEvent `json:"contentChanges"`
}

// textDocumentContentChangeEvent is one didChange edit. With a
// non-nil Range the Text replaces that span (incremental sync); with a
// nil Range the Text replaces the whole document (clients may mix the
// two forms).
type textDocumentContentChangeEvent struct {
	Range *Range `json:"range"`
	Text  string `json:"text"`
}

type didChangeConfigurationParams struct {
	// Settings is opaque to weblint: any configuration change
	// invalidates the cached .weblintrc linters so the next lint
	// re-reads them.
	Settings any `json:"settings"`
}

type documentDiagnosticParams struct {
	TextDocument TextDocumentIdentifier `json:"textDocument"`
}

// fullDocumentDiagnosticReport answers a textDocument/diagnostic pull
// (LSP 3.17). Weblint always reports kind "full": an "unchanged"
// answer with a resultId would spare re-sending an unchanged report,
// but the editor benchmark (benchsuite/editor.go) fails any pull not
// answered in full, so it waits on a change there first.
type fullDocumentDiagnosticReport struct {
	Kind  string       `json:"kind"`
	Items []Diagnostic `json:"items"`
}

// appendJSON appends the report's JSON encoding, byte for byte what
// json.Marshal gives.
func (r fullDocumentDiagnosticReport) appendJSON(b []byte) []byte {
	b = render.AppendJSONString(append(b, `{"kind":`...), r.Kind)
	b = appendDiagnostics(append(b, `,"items":`...), r.Items)
	return append(b, '}')
}

type didCloseParams struct {
	TextDocument TextDocumentIdentifier `json:"textDocument"`
}

type publishDiagnosticsParams struct {
	URI         string       `json:"uri"`
	Version     int          `json:"version,omitempty"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// appendJSON appends the params' JSON encoding, byte for byte what
// json.Marshal gives.
func (p publishDiagnosticsParams) appendJSON(b []byte) []byte {
	b = render.AppendJSONString(append(b, `{"uri":`...), p.URI)
	if p.Version != 0 {
		b = strconv.AppendInt(append(b, `,"version":`...), int64(p.Version), 10)
	}
	b = appendDiagnostics(append(b, `,"diagnostics":`...), p.Diagnostics)
	return append(b, '}')
}

// appendDiagnostics appends ds as json.Marshal encodes a []Diagnostic.
// A pull or a publish carries hundreds of them, which is why they, and
// only the two payloads holding them, are encoded by hand.
func appendDiagnostics(b []byte, ds []Diagnostic) []byte {
	if ds == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i := range ds {
		if i > 0 {
			b = append(b, ',')
		}
		d := &ds[i]
		b = appendRange(append(b, `{"range":`...), d.Range)
		if d.Severity != 0 {
			b = strconv.AppendInt(append(b, `,"severity":`...), int64(d.Severity), 10)
		}
		if d.Code != "" {
			b = render.AppendJSONString(append(b, `,"code":`...), d.Code)
		}
		if d.Source != "" {
			b = render.AppendJSONString(append(b, `,"source":`...), d.Source)
		}
		b = render.AppendJSONString(append(b, `,"message":`...), d.Message)
		b = append(b, '}')
	}
	return append(b, ']')
}

func appendRange(b []byte, r Range) []byte {
	b = appendPosition(append(b, `{"start":`...), r.Start)
	b = appendPosition(append(b, `,"end":`...), r.End)
	return append(b, '}')
}

func appendPosition(b []byte, p Position) []byte {
	b = strconv.AppendInt(append(b, `{"line":`...), int64(p.Line), 10)
	b = strconv.AppendInt(append(b, `,"character":`...), int64(p.Character), 10)
	return append(b, '}')
}

type codeActionParams struct {
	TextDocument TextDocumentIdentifier `json:"textDocument"`
	Range        Range                  `json:"range"`
	Context      codeActionContext      `json:"context"`
}

type codeActionContext struct {
	Diagnostics []Diagnostic `json:"diagnostics"`
	Only        []string     `json:"only,omitempty"`
}

// CodeAction is a quick fix offered for a diagnostic.
type CodeAction struct {
	Title       string         `json:"title"`
	Kind        string         `json:"kind,omitempty"`
	Diagnostics []Diagnostic   `json:"diagnostics,omitempty"`
	IsPreferred bool           `json:"isPreferred,omitempty"`
	Edit        *WorkspaceEdit `json:"edit,omitempty"`
}

// WorkspaceEdit carries document edits keyed by URI.
type WorkspaceEdit struct {
	Changes map[string][]TextEdit `json:"changes"`
}

// TextEdit replaces a range with new text.
type TextEdit struct {
	Range   Range  `json:"range"`
	NewText string `json:"newText"`
}
