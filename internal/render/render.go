// Package render provides the pluggable diagnostics renderers of the
// streaming pipeline: every renderer is a warn.Sink that writes one
// representation of the message stream to an io.Writer.
//
// Four renderers wrap the traditional human formatters (lint, short,
// terse, verbose); two emit machine-readable output for CI and editor
// tooling: "json" writes one JSON object per message (JSON Lines), and
// "sarif" writes a SARIF 2.1.0 log, the interchange format GitHub code
// scanning and most editor problem-matchers consume.
//
// Renderers are streaming where the format allows it: the line-based
// renderers (including json) write each message as it arrives and
// buffer nothing. SARIF is a single JSON document whose rules table,
// which precedes the results, needs every referenced ID first, so that
// renderer records the messages and writes the log at Close — streamed
// in chunks of at most 32 KiB, holding the recorded messages plus one
// chunk rather than the whole document. Either way the producer drives
// them identically: Write each message, then Close exactly once.
package render

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"strconv"

	"weblint/internal/warn"
)

// Renderer consumes a stream of diagnostics and renders it to the
// writer it was constructed over. Close must be called once after the
// last Write; document formats (SARIF) write their output there, and
// every renderer reports its first write error there.
type Renderer interface {
	warn.Sink
	// Close finishes the rendering and returns the first error
	// encountered, if any.
	Close() error
}

// Styles returns the recognised renderer names, in menu order.
func Styles() []string {
	return []string{"lint", "short", "terse", "verbose", "json", "sarif"}
}

// Valid reports whether style names a renderer.
func Valid(style string) bool {
	return slices.Contains(Styles(), style)
}

// New returns a renderer writing the named style to w. The recognised
// styles are those of Styles; anything else is an error naming the
// style.
func New(style string, w io.Writer) (Renderer, error) {
	switch style {
	case "lint":
		return NewFormatter(warn.Lint{}, w), nil
	case "short":
		return NewFormatter(warn.Short{}, w), nil
	case "terse":
		return NewFormatter(warn.Terse{}, w), nil
	case "verbose":
		return NewFormatter(warn.Verbose{}, w), nil
	case "json":
		return NewJSON(w), nil
	case "sarif":
		return NewSARIF(w), nil
	}
	return nil, fmt.Errorf("render: unknown output format %q", style)
}

// formatterRenderer wraps a warn.Formatter as a streaming Renderer.
type formatterRenderer struct {
	*warn.WriterSink
}

// NewFormatter returns a streaming renderer writing each message
// through f, one line at a time. It is how the traditional human
// formatters — and any user-supplied warn.Formatter, such as the
// gateway's HTML formatter — plug into the sink pipeline.
func NewFormatter(f warn.Formatter, w io.Writer) Renderer {
	return formatterRenderer{warn.NewWriterSink(f, w)}
}

// Close reports the first write error; line renderers have nothing to
// flush.
func (r formatterRenderer) Close() error { return r.Err() }

// jsonRenderer streams one JSON object per message and counts the
// stream into its own Summary for the trailing summary line. Each line
// is appended into buf, which the renderer reuses, and written in one
// call.
//
// A message line is {"id", "category", "file", "line", "col", "text"}
// and, when the checker attached a fix, a "fixes" array holding one
// {"label", "edits": [{"start", "end", "text"}]} object, with byte
// offsets into the checked document. The bytes are exactly those
// encoding/json writes for the struct form the tests keep as the
// reference: fixed field order, strings escaped by AppendJSONString,
// and nil edits written as null.
type jsonRenderer struct {
	w   io.Writer
	err error
	sum warn.Summary
	buf []byte
}

// NewJSON returns a streaming JSON Lines renderer: one JSON object per
// message, one message per line, nothing buffered. Message text — which
// can embed attacker-controlled markup such as attribute values — is
// escaped as encoding/json escapes it, including the <, > and & HTML
// escapes, so the output is safe to embed. Close terminates the stream
// with one {"summary": ...} line carrying per-category counts and, when
// the renderer is the emitter's sink (directly or behind forwarding
// wrappers like Summary.Sink), per-rule suppression stats.
func NewJSON(w io.Writer) Renderer {
	return &jsonRenderer{w: w, buf: make([]byte, 0, jsonLineCap)}
}

// jsonLineCap is the line buffer a JSON Lines stream starts with, one
// allocation: a finding's line is about 120 bytes, and one carrying a
// fix up to about 400, so the buffer rarely grows after that.
const jsonLineCap = 512

func (r *jsonRenderer) Write(m warn.Message) bool {
	if r.err != nil {
		return false
	}
	r.sum.Add(m)
	b := AppendJSONString(append(r.buf[:0], `{"id":`...), m.ID)
	b = AppendJSONString(append(b, `,"category":`...), m.Category.String())
	b = AppendJSONString(append(b, `,"file":`...), m.File)
	b = strconv.AppendInt(append(b, `,"line":`...), int64(m.Line), 10)
	b = strconv.AppendInt(append(b, `,"col":`...), int64(m.Col), 10)
	b = AppendJSONString(append(b, `,"text":`...), m.Text)
	if f := m.Fix; f != nil {
		b = AppendJSONString(append(b, `,"fixes":[{"label":`...), f.Label)
		b = appendJSONEdits(append(b, `,"edits":`...), f.Edits)
		b = append(b, "}]"...)
	}
	return r.writeLine(append(b, "}\n"...))
}

// appendJSONEdits appends a fix's edits as a JSON array, or null for
// nil edits.
func appendJSONEdits(b []byte, edits []warn.Edit) []byte {
	if edits == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, e := range edits {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"start":`...), int64(e.Start), 10)
		b = strconv.AppendInt(append(b, `,"end":`...), int64(e.End), 10)
		b = AppendJSONString(append(b, `,"text":`...), e.Text)
		b = append(b, '}')
	}
	return append(b, ']')
}

// writeLine writes one line and keeps b's memory for the next,
// recording the first write error.
func (r *jsonRenderer) writeLine(b []byte) bool {
	r.buf = b
	if _, err := r.w.Write(b); err != nil {
		r.err = err
		return false
	}
	return true
}

// ObserveSuppressed counts a disabled emission for the summary line.
func (r *jsonRenderer) ObserveSuppressed(id string) { r.sum.AddSuppressed(id) }

// Close writes the summary line (a partial stream still gets one, the
// same way a partial SARIF document is still closed) and reports the
// first stream error. The line is {"summary": {"errors", "warnings",
// "style"}}, plus a "suppressed" object of per-rule counts, keys
// sorted, when any emission was suppressed.
func (r *jsonRenderer) Close() error {
	if r.err != nil {
		return r.err
	}
	b := strconv.AppendInt(append(r.buf[:0], `{"summary":{"errors":`...), int64(r.sum.Errors), 10)
	b = strconv.AppendInt(append(b, `,"warnings":`...), int64(r.sum.Warnings), 10)
	b = strconv.AppendInt(append(b, `,"style":`...), int64(r.sum.Style), 10)
	if len(r.sum.Suppressed) > 0 {
		b = append(b, `,"suppressed":{`...)
		for i, id := range slices.Sorted(maps.Keys(r.sum.Suppressed)) {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(append(AppendJSONString(b, id), ':'), int64(r.sum.Suppressed[id]), 10)
		}
		b = append(b, '}')
	}
	r.writeLine(append(b, "}}\n"...))
	return r.err
}
