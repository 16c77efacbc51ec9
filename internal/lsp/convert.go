package lsp

import (
	"net/url"
	"path/filepath"
	"strings"

	"weblint/internal/textpos"
	"weblint/internal/warn"
)

// convert.go translates between weblint's diagnostics model (1-based
// lines, 1-based byte columns, byte-span fix edits) and the LSP's
// (0-based lines, UTF-16 code-unit columns, range edits). The byte to
// UTF-16 mapping is delegated to textpos, which both this server and
// the baseline layer share.

// uriToPath converts a file:// URI to a filesystem path, or "" for
// any other scheme (untitled:, inmemory:, ...). Percent-escapes are
// decoded by the URL parser.
func uriToPath(uri string) string {
	u, err := url.Parse(uri)
	if err != nil || u.Scheme != "file" {
		return ""
	}
	path := u.Path
	if path == "" {
		return ""
	}
	// Windows-style /C:/... paths keep working when the server is
	// built there; on Unix this is a no-op.
	if len(path) >= 3 && path[0] == '/' && path[2] == ':' {
		path = path[1:]
	}
	return filepath.FromSlash(path)
}

// severityOf maps weblint's categories onto LSP diagnostic severities
// using the same policy as the SARIF renderer: errors are errors,
// warnings warnings, and style comments informational.
func severityOf(c warn.Category) int {
	switch c {
	case warn.Error:
		return SeverityError
	case warn.Warning:
		return SeverityWarning
	case warn.Style:
		return SeverityInformation
	}
	return SeverityHint
}

// diagnosticFor converts one message. Message lines count in the
// tokenizer's convention, so the session's LF index lf turns line and
// column into a byte offset, and ix, the same text's index in the
// protocol's convention, turns that offset into the position an editor
// shows. The range starts at the message's column (or the start of
// the line when the column is unknown) and runs to the end of the
// editor line it starts on: weblint messages don't carry an extent,
// and to-end-of-line is how line-oriented linters conventionally
// surface that.
func diagnosticFor(m warn.Message, lf, ix *textpos.Index) Diagnostic {
	line := max(m.Line-1, 0)
	start := lf.LineStart(line)
	if m.Col > 0 {
		start = min(start+m.Col-1, start+len(lf.LineText(line)))
	}
	sl, sc, ec := ix.ToLineEndUTF16(start)
	return Diagnostic{
		Range:    Range{Start: Position{sl, sc}, End: Position{sl, ec}},
		Severity: severityOf(m.Category),
		Code:     m.ID,
		Source:   "weblint",
		Message:  m.Text,
	}
}

// editsToLSP converts a fix's byte-span edits to LSP text edits.
func editsToLSP(edits []warn.Edit, ix *textpos.Index) []TextEdit {
	out := make([]TextEdit, len(edits))
	for i, e := range edits {
		sl, sc := ix.OffsetToUTF16(e.Start)
		el, ec := ix.OffsetToUTF16(e.End)
		out[i] = TextEdit{
			Range:   Range{Start: Position{sl, sc}, End: Position{el, ec}},
			NewText: e.Text,
		}
	}
	return out
}

// posCmp orders two positions.
func posCmp(a, b Position) int {
	if a.Line != b.Line {
		return a.Line - b.Line
	}
	return a.Character - b.Character
}

// rangesTouch reports whether two ranges overlap or touch — the
// inclusive test codeAction uses, so a cursor sitting at a
// diagnostic's boundary still gets its quick fix.
func rangesTouch(a, b Range) bool {
	return posCmp(a.Start, b.End) <= 0 && posCmp(b.Start, a.End) <= 0
}

// ApplyTextEdits applies LSP text edits to a document, resolving
// ranges through a fresh index. Exposed for clients and tests that
// want to verify an edit the way an editor would apply it.
func ApplyTextEdits(text string, edits []TextEdit) string {
	ix := textpos.New(text)
	type span struct {
		start, end int
		text       string
	}
	spans := make([]span, len(edits))
	for i, e := range edits {
		spans[i] = span{
			start: ix.UTF16ToOffset(e.Range.Start.Line, e.Range.Start.Character),
			end:   ix.UTF16ToOffset(e.Range.End.Line, e.Range.End.Character),
			text:  e.NewText,
		}
	}
	// Apply back to front so earlier offsets stay valid; edits of one
	// fix never overlap.
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[j].start > spans[i].start {
				spans[i], spans[j] = spans[j], spans[i]
			}
		}
	}
	var sb strings.Builder
	for _, sp := range spans {
		if sp.start < 0 || sp.end < sp.start || sp.end > len(text) {
			continue
		}
		sb.Reset()
		sb.WriteString(text[:sp.start])
		sb.WriteString(sp.text)
		sb.WriteString(text[sp.end:])
		text = sb.String()
	}
	return text
}
