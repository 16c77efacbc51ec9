package warn

import (
	"fmt"
	"io"
)

// Sink is the universal streaming diagnostics channel: every layer of
// the pipeline (emitter, linter, batch engine, site walker, command
// line) delivers messages by writing them to a Sink, one at a time, as
// they are produced.
//
// Write consumes one message and reports whether the producer should
// continue: returning false cancels the check (or batch) feeding the
// sink, which stops promptly and produces no further messages. A Sink
// is driven by a single goroutine at a time; implementations only need
// internal synchronisation when one instance is deliberately shared
// across concurrent checks.
//
// Plugin authors: a renderer, filter, counter or forwarder is just a
// Sink. Compose them by wrapping — see Summary.Sink for a counting
// pass-through and NewWriterSink for a Formatter-backed line writer.
type Sink interface {
	Write(Message) bool
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Message) bool

// Write calls f(m).
func (f SinkFunc) Write(m Message) bool { return f(m) }

// Collector is a Sink that accumulates messages in order. It is how
// the slice-returning check APIs are built on the streaming core: run
// the check into a Collector, then hand back its Messages.
type Collector struct {
	// Messages are the collected messages, in write order.
	Messages []Message
}

// Write appends m and never cancels.
func (c *Collector) Write(m Message) bool {
	c.Messages = append(c.Messages, m)
	return true
}

// Reset discards collected messages, retaining capacity.
func (c *Collector) Reset() { c.Messages = c.Messages[:0] }

// SuppressionObserver is implemented by sinks that want to know about
// emissions the emitter dropped because their message ID was disabled.
// The emitter checks for it only on the suppressed path, so ordinary
// sinks pay nothing.
type SuppressionObserver interface {
	// ObserveSuppressed reports one suppressed emission of id.
	ObserveSuppressed(id string)
}

// Recorder is a Collector that additionally records suppressed
// emission IDs, in emission order: a finished check's whole finding
// stream. Every buffered delivery path holds one — engine and site-walk
// results, the sequential CLI, the gateway's result cache and
// singleflight — and later Replays it into the real sink, so per-rule
// suppression stats survive the buffering hop. A shared Recorder (a
// cache entry) is read-only: replay it, and copy its Messages before
// reordering them.
type Recorder struct {
	Collector
	// SuppressedIDs are the IDs of suppressed emissions, in order.
	SuppressedIDs []string
}

// ObserveSuppressed records one suppressed emission.
func (r *Recorder) ObserveSuppressed(id string) {
	r.SuppressedIDs = append(r.SuppressedIDs, id)
}

// Replay forwards the recorded suppressions — when sink is a
// SuppressionObserver — and then every collected message into sink,
// reporting whether the stream may continue.
func (r *Recorder) Replay(sink Sink) bool {
	if o, ok := sink.(SuppressionObserver); ok {
		for _, id := range r.SuppressedIDs {
			o.ObserveSuppressed(id)
		}
	}
	for _, m := range r.Messages {
		if !sink.Write(m) {
			return false
		}
	}
	return true
}

// WriterSink renders each message with a Formatter and writes it to an
// io.Writer, one per line. The first write error cancels the stream
// and is retained for Err.
type WriterSink struct {
	f   Formatter
	w   io.Writer
	buf []byte
	err error
}

// NewWriterSink returns a WriterSink rendering through f to w.
func NewWriterSink(f Formatter, w io.Writer) *WriterSink {
	return &WriterSink{f: f, w: w}
}

// Write renders and writes one message, returning false once a write
// has failed.
func (s *WriterSink) Write(m Message) bool {
	if s.err != nil {
		return false
	}
	s.buf = append(s.buf[:0], s.f.Format(m)...)
	s.buf = append(s.buf, '\n')
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
		return false
	}
	return true
}

// Err returns the first write error, or nil.
func (s *WriterSink) Err() error { return s.err }

// Summary counts diagnostics by category. It is the severity-policy
// half of the pipeline: stream messages through Sink (or count them
// directly with Add), then derive an exit decision from Failures.
type Summary struct {
	// Errors, Warnings and Style are the per-category counts.
	Errors   int
	Warnings int
	Style    int
	// Suppressed counts emissions dropped because their message ID
	// was disabled, per ID. Nil until the first suppression is
	// observed.
	Suppressed map[string]int
}

// Add counts one message.
func (s *Summary) Add(m Message) {
	switch m.Category {
	case Error:
		s.Errors++
	case Warning:
		s.Warnings++
	case Style:
		s.Style++
	}
}

// AddSuppressed counts one suppressed emission of id.
func (s *Summary) AddSuppressed(id string) {
	if s.Suppressed == nil {
		s.Suppressed = make(map[string]int)
	}
	s.Suppressed[id]++
}

// SuppressedTotal returns how many emissions were suppressed in all.
func (s *Summary) SuppressedTotal() int {
	n := 0
	for _, c := range s.Suppressed {
		n += c
	}
	return n
}

// Total returns the number of messages counted.
func (s *Summary) Total() int { return s.Errors + s.Warnings + s.Style }

// Count returns the count for one category.
func (s *Summary) Count(c Category) int {
	switch c {
	case Error:
		return s.Errors
	case Warning:
		return s.Warnings
	case Style:
		return s.Style
	}
	return 0
}

// Sink returns a counting pass-through: every message is counted into
// s and then forwarded to next. A nil next counts without forwarding.
// The returned sink also observes suppressed emissions (counting them
// into s.Suppressed) and forwards them to next when it cares.
func (s *Summary) Sink(next Sink) Sink {
	return &summarySink{s: s, next: next}
}

// summarySink is the counting pass-through Summary.Sink returns.
type summarySink struct {
	s    *Summary
	next Sink
}

func (k *summarySink) Write(m Message) bool {
	k.s.Add(m)
	if k.next == nil {
		return true
	}
	return k.next.Write(m)
}

func (k *summarySink) ObserveSuppressed(id string) {
	k.s.AddSuppressed(id)
	if o, ok := k.next.(SuppressionObserver); ok {
		o.ObserveSuppressed(id)
	}
}

// String renders the summary as "N errors, N warnings, N style".
func (s *Summary) String() string {
	return fmt.Sprintf("%d %s, %d %s, %d style",
		s.Errors, plural("error", s.Errors),
		s.Warnings, plural("warning", s.Warnings),
		s.Style)
}

func plural(word string, n int) string {
	if n == 1 {
		return word
	}
	return word + "s"
}

// FailOn is the severity threshold that turns findings into a failing
// exit: findings at or above the threshold fail the run.
type FailOn int

const (
	// FailOnError fails only on errors.
	FailOnError FailOn = iota
	// FailOnWarning fails on errors and warnings.
	FailOnWarning
	// FailOnStyle fails on any finding, style comments included. It
	// is the historical weblint behaviour ("any problem exits 1") and
	// the default.
	FailOnStyle
	// FailOnNever never fails on findings; only operational errors
	// produce a non-zero exit.
	FailOnNever
)

// ParseFailOn converts a threshold name to a FailOn. "any" is accepted
// as an alias for "style" (every finding fails). The boolean result
// reports whether the name was valid.
func ParseFailOn(s string) (FailOn, bool) {
	switch s {
	case "error", "errors":
		return FailOnError, true
	case "warning", "warnings":
		return FailOnWarning, true
	case "style", "any":
		return FailOnStyle, true
	case "never", "none":
		return FailOnNever, true
	}
	return 0, false
}

// String returns the canonical threshold name.
func (f FailOn) String() string {
	switch f {
	case FailOnError:
		return "error"
	case FailOnWarning:
		return "warning"
	case FailOnStyle:
		return "style"
	case FailOnNever:
		return "never"
	}
	return fmt.Sprintf("failon(%d)", int(f))
}

// Failures returns how many counted findings are at or above the
// threshold f: the run should exit non-zero when it is positive.
func (s *Summary) Failures(f FailOn) int {
	switch f {
	case FailOnError:
		return s.Errors
	case FailOnWarning:
		return s.Errors + s.Warnings
	case FailOnStyle:
		return s.Errors + s.Warnings + s.Style
	}
	return 0
}
