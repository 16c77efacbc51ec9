package render

import (
	"io"
	"sort"
	"strconv"
	"unicode/utf8"

	"weblint/internal/warn"
)

// sarifChunk bounds every Write the SARIF renderer makes to its
// writer, and so the output it holds at once.
const sarifChunk = 32 << 10

// sarifLevel maps weblint's categories onto SARIF result levels:
// errors are "error", warnings "warning", and style comments "note".
func sarifLevel(c warn.Category) string {
	switch c {
	case warn.Error:
		return "error"
	case warn.Warning:
		return "warning"
	case warn.Style:
		return "note"
	}
	return "none"
}

// sarifRenderer records the stream and writes one SARIF log at Close.
// The log cannot start earlier: its rules table, which precedes the
// results, holds exactly the message definitions the stream
// referenced, sorted by ID, and every result carries its rule's index
// in that table. Two runs over the same stream produce byte-identical
// logs.
//
// Close encodes the log directly, appending each value to one buffer
// and writing it out in chunks of at most sarifChunk bytes, so the
// renderer holds the recorded findings plus one chunk, never the
// whole document. The bytes are exactly those encoding/json's
// MarshalIndent(log, "", "  ") produces for the log's struct form,
// with a trailing newline; the tests keep that struct form as the
// reference.
type sarifRenderer struct {
	w    io.Writer
	msgs []warn.Message
}

// NewSARIF returns a renderer producing a SARIF 2.1.0 log. Write only
// records; the log is streamed to w at Close, because its rules table
// needs every referenced ID first. Everything else about driving the
// renderer matches the streaming ones, and Close returns the first
// write error, after which it writes nothing more.
func NewSARIF(w io.Writer) Renderer {
	return &sarifRenderer{w: w}
}

func (r *sarifRenderer) Write(m warn.Message) bool {
	r.msgs = append(r.msgs, m)
	return true
}

func (r *sarifRenderer) Close() error {
	// Rules: the distinct IDs referenced, sorted for determinism.
	index := map[string]int{}
	var ids []string
	for _, m := range r.msgs {
		if _, ok := index[m.ID]; !ok {
			index[m.ID] = 0
			ids = append(ids, m.ID)
		}
	}
	sort.Strings(ids)

	// Room for a full chunk plus the result that crosses into the next.
	b := make([]byte, 0, 2*sarifChunk)
	b = append(b, `{
  "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
  "version": "2.1.0",
  "runs": [
    {
      "tool": {
        "driver": {
          "name": "weblint",
          "version": "2.0",
          "informationUri": "https://www.usenix.org/conference/1998-usenix-annual-technical-conference",
          "rules": [`...)
	for i, id := range ids {
		index[id] = i
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSARIFRule(b, id)
	}
	b = appendClose(b, len(ids), "\n          ]")
	b = append(b, "\n        }\n      },\n      \"results\": ["...)
	var err error
	for i, m := range r.msgs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendSARIFResult(b, m, index[m.ID])
		if b, err = writeChunks(r.w, b, false); err != nil {
			return err
		}
	}
	b = appendClose(b, len(r.msgs), "\n      ]")
	b = append(b, "\n    }\n  ]\n}\n"...)
	_, err = writeChunks(r.w, b, true)
	return err
}

// appendClose ends a JSON array of n elements: an empty array stays
// "[]", as MarshalIndent writes it, and a filled one ends with end, a
// newline and the closing bracket at the array's own indent.
func appendClose(b []byte, n int, end string) []byte {
	if n == 0 {
		return append(b, ']')
	}
	return append(b, end...)
}

// appendSARIFRule appends one rules-table entry. Definitions the
// registry does not know, such as plugin rules checked elsewhere,
// carry their ID alone.
func appendSARIFRule(b []byte, id string) []byte {
	b = append(b, "\n            {\n              \"id\": "...)
	b = appendJSONString(b, id)
	if d := warn.Lookup(id); d != nil {
		if d.Format != "" {
			b = append(b, ",\n              \"shortDescription\": {\n                \"text\": "...)
			b = appendJSONString(b, d.Format)
			b = append(b, "\n              }"...)
		}
		if d.Explain != "" {
			b = append(b, ",\n              \"fullDescription\": {\n                \"text\": "...)
			b = appendJSONString(b, d.Explain)
			b = append(b, "\n              }"...)
		}
		b = append(b, ",\n              \"defaultConfiguration\": {\n                \"level\": \""...)
		b = append(b, sarifLevel(d.Category)...)
		b = append(b, "\"\n              }"...)
	}
	return append(b, "\n            }"...)
}

// appendSARIFResult appends one result: rule, level, message, one
// physical location and, when the checker attached one, the fix.
func appendSARIFResult(b []byte, m warn.Message, ruleIndex int) []byte {
	b = append(b, "\n        {\n          \"ruleId\": "...)
	b = appendJSONString(b, m.ID)
	b = append(b, ",\n          \"ruleIndex\": "...)
	b = strconv.AppendInt(b, int64(ruleIndex), 10)
	b = append(b, ",\n          \"level\": \""...)
	b = append(b, sarifLevel(m.Category)...)
	b = append(b, "\",\n          \"message\": {\n            \"text\": "...)
	b = appendJSONString(b, m.Text)
	b = append(b, "\n          },\n          \"locations\": [\n            {\n              \"physicalLocation\": {\n                \"artifactLocation\": {\n                  \"uri\": "...)
	b = appendJSONString(b, m.File)
	b = append(b, "\n                },\n                \"region\": {\n                  \"startLine\": "...)
	// SARIF requires startLine >= 1; document-level messages anchor
	// at the top.
	b = strconv.AppendInt(b, int64(max(m.Line, 1)), 10)
	if m.Col != 0 {
		b = append(b, ",\n                  \"startColumn\": "...)
		b = strconv.AppendInt(b, int64(m.Col), 10)
	}
	b = append(b, "\n                }\n              }\n            }\n          ]"...)
	if m.Fix != nil {
		b = appendSARIFFix(b, m.File, m.Fix)
	}
	return append(b, "\n        }"...)
}

// appendSARIFFix appends a result's "fixes" member: one fix whose
// single artifact change replaces byte-offset deletedRegions (weblint
// edits are byte spans over the checked document).
func appendSARIFFix(b []byte, file string, f *warn.Fix) []byte {
	b = append(b, ",\n          \"fixes\": [\n            {\n              \"description\": {\n                \"text\": "...)
	b = appendJSONString(b, f.Label)
	b = append(b, "\n              },\n              \"artifactChanges\": [\n                {\n                  \"artifactLocation\": {\n                    \"uri\": "...)
	b = appendJSONString(b, file)
	b = append(b, "\n                  },\n                  \"replacements\": ["...)
	for i, e := range f.Edits {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n                    {\n                      \"deletedRegion\": {\n                        \"byteOffset\": "...)
		b = strconv.AppendInt(b, int64(e.Start), 10)
		b = append(b, ",\n                        \"byteLength\": "...)
		b = strconv.AppendInt(b, int64(e.End-e.Start), 10)
		b = append(b, "\n                      }"...)
		if e.Text != "" {
			b = append(b, ",\n                      \"insertedContent\": {\n                        \"text\": "...)
			b = appendJSONString(b, e.Text)
			b = append(b, "\n                      }"...)
		}
		b = append(b, "\n                    }"...)
	}
	b = appendClose(b, len(f.Edits), "\n                  ]")
	return append(b, "\n                }\n              ]\n            }\n          ]"...)
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// literal unescaped when it escapes HTML, as it does by default:
// everything from space up except the quote, the backslash and the
// markup metacharacters <, > and &.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal escaped exactly
// as encoding/json escapes it by default: \" and \\, the short escapes
// \b \f \n \r \t, \u00XX for the other control bytes and for < > &
// (so the log is safe to embed in HTML), \ufffd for each byte of
// invalid UTF-8, and \u2028/\u2029, which break JavaScript string
// literals.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// writeChunks writes every whole sarifChunk-sized chunk of b to w and,
// when final, the remainder too. It returns the unwritten bytes moved
// to the front of b, so the caller keeps appending to the same buffer,
// and the first write error; the caller then stops encoding, so
// nothing more reaches w.
func writeChunks(w io.Writer, b []byte, final bool) ([]byte, error) {
	p := b
	for len(p) >= sarifChunk || final && len(p) > 0 {
		n := min(len(p), sarifChunk)
		if _, err := w.Write(p[:n]); err != nil {
			return b, err
		}
		p = p[n:]
	}
	return b[:copy(b, p)], nil
}
