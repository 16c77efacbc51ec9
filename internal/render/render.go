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
	"encoding/json"
	"fmt"
	"io"
	"slices"

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

// jsonMessage is the JSON Lines shape of one diagnostic. The field
// order is fixed, so output is byte-stable for a given stream. Fixes,
// when the checker attached one, appear as a "fixes" array of
// {label, edits:[{start,end,text}]} objects with byte offsets into
// the checked document.
type jsonMessage struct {
	ID       string      `json:"id"`
	Category string      `json:"category"`
	File     string      `json:"file"`
	Line     int         `json:"line"`
	Col      int         `json:"col"`
	Text     string      `json:"text"`
	Fixes    []*warn.Fix `json:"fixes,omitempty"`
}

// jsonFixes wraps a message's optional fix as the "fixes" array.
func jsonFixes(m warn.Message) []*warn.Fix {
	if m.Fix == nil {
		return nil
	}
	return []*warn.Fix{m.Fix}
}

// jsonRenderer streams one JSON object per message and counts the
// stream into its own Summary for the trailing summary line.
type jsonRenderer struct {
	w   io.Writer
	err error
	sum warn.Summary
}

// NewJSON returns a streaming JSON Lines renderer: one JSON object per
// message, one message per line, nothing buffered. Message text — which
// can embed attacker-controlled markup such as attribute values — is
// escaped by encoding/json, including the <, > and & HTML escapes, so
// the output is safe to embed. Close terminates the stream with one
// {"summary": ...} line carrying per-category counts and, when the
// renderer is the emitter's sink (directly or behind forwarding
// wrappers like Summary.Sink), per-rule suppression stats.
func NewJSON(w io.Writer) Renderer {
	return &jsonRenderer{w: w}
}

func (r *jsonRenderer) Write(m warn.Message) bool {
	if r.err != nil {
		return false
	}
	r.sum.Add(m)
	line, err := json.Marshal(jsonMessage{
		ID:       m.ID,
		Category: m.Category.String(),
		File:     m.File,
		Line:     m.Line,
		Col:      m.Col,
		Text:     m.Text,
		Fixes:    jsonFixes(m),
	})
	if err == nil {
		line = append(line, '\n')
		_, err = r.w.Write(line)
	}
	if err != nil {
		r.err = err
		return false
	}
	return true
}

// ObserveSuppressed counts a disabled emission for the summary line.
func (r *jsonRenderer) ObserveSuppressed(id string) { r.sum.AddSuppressed(id) }

// jsonSummary is the shape of the trailing summary line. The
// suppressed map keys are rule IDs; encoding/json sorts them, so the
// line is byte-stable for a given stream.
type jsonSummary struct {
	Errors     int            `json:"errors"`
	Warnings   int            `json:"warnings"`
	Style      int            `json:"style"`
	Suppressed map[string]int `json:"suppressed,omitempty"`
}

// Close writes the summary line (a partial stream still gets one, the
// same way a partial SARIF document is still closed) and reports the
// first stream error.
func (r *jsonRenderer) Close() error {
	line, err := json.Marshal(struct {
		Summary jsonSummary `json:"summary"`
	}{jsonSummary{
		Errors:     r.sum.Errors,
		Warnings:   r.sum.Warnings,
		Style:      r.sum.Style,
		Suppressed: r.sum.Suppressed,
	}})
	if err == nil && r.err == nil {
		line = append(line, '\n')
		if _, werr := r.w.Write(line); werr != nil {
			r.err = werr
		}
	}
	return r.err
}
