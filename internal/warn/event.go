package warn

import (
	"maps"
	"strings"
)

// LineRef is an int argument that is a 1-based line number in the
// checked document. Emission sites wrap line-valued arguments in it so
// that an incremental re-lint can tell which %d arguments must be
// shifted when lines move and which are plain counts (a title length,
// a limit). It formats exactly like int.
type LineRef int

// Event is one enabled emission as the incremental Session records it:
// the Message a Sink would have received, plus what an edit can move
// that the Message holds only as text. Line, Col and Fix edit offsets
// are fields the Session shifts in place; a line number rendered into
// Text is not, so an emission with a LineRef argument also keeps its
// template and arguments, and the Session re-renders Text after moving
// one (see Reformat). Every other event carries no Format or Args.
type Event struct {
	// Message is the finding as emitted, Text already formatted. Its
	// Fix is a deep copy (see cloneFix): the event owns it, but
	// Messages handed out share it, so shifting must copy, not mutate.
	Message
	// Format is the template Text rendered from, with any catalog
	// override applied; empty unless an argument is a LineRef.
	Format string
	// Args are copies of the format arguments (see keepArgs); nil
	// unless one of them is a LineRef.
	Args []any
}

// Reformat renders Text from Format and Args again, after a caller
// replaced a LineRef argument. It is appendFormat, the emitter's own
// renderer, so the text is byte-identical to what an emission with
// those arguments renders.
func (ev *Event) Reformat() {
	ev.Text = string(appendFormat(make([]byte, 0, len(ev.Format)+32), ev.Format, ev.Args))
}

// SetEventSink installs a function that receives every enabled
// emission, after the cancellation check, as the Event recording the
// Message a Sink would get. While an event sink is set it is the only
// destination: the emitter writes nothing to its Sink, and a
// suppressed emission reaches neither it nor a SuppressionObserver.
// Nil removes it; Reset also removes it, so pooled emitters never leak
// a recorder into the next check.
//
// Note this is distinct from the Recorder sink in sink.go, which
// collects Messages plus suppressed IDs for replay; the event sink
// feeds the incremental lint Session, which shifts what it records.
func (e *Emitter) SetEventSink(fn func(Event)) { e.eventSink = fn }

// keepArgs returns the arguments an Event keeps: nil unless one of
// args is a LineRef, else a copy made by type — strings cloned (checker
// args may alias the checked document, e.g. a token's raw text), ints,
// LineRefs and bools by value. Copying by type, rather than storing
// the caller's interface values, keeps args from escaping (see Emit);
// a type appendArg does not render becomes nil, which renders the same
// placeholder.
func keepArgs(args []any) []any {
	var out []any
	for _, a := range args {
		if _, ok := a.(LineRef); ok {
			out = make([]any, len(args))
			break
		}
	}
	if out == nil {
		return nil
	}
	for i, a := range args {
		switch v := a.(type) {
		case string:
			out[i] = strings.Clone(v)
		case int:
			out[i] = v
		case LineRef:
			out[i] = v
		case bool:
			out[i] = v
		}
	}
	return out
}

// StaticLine reports whether id is emitted at a fixed position that
// does not refer to any document content: the whole-document structure
// checks report at line 1 however the document reads. An incremental
// splice must keep such positions as-is — they are labels, not
// locations, and do not move when lines are inserted or deleted.
func StaticLine(id string) bool {
	switch id {
	case "html-outer", "require-head", "require-title", "require-meta":
		return true
	}
	return false
}

// cloneFix deep-copies a fix for retention in an Event. Fix labels and
// edit texts are often built from document substrings (a tag's raw
// text); cloning them keeps a long-lived event stream from pinning
// every past revision of an edited document in memory.
func cloneFix(f *Fix) *Fix {
	if f == nil {
		return nil
	}
	cp := &Fix{Label: strings.Clone(f.Label), Edits: make([]Edit, len(f.Edits))}
	for i, e := range f.Edits {
		cp.Edits[i] = Edit{Start: e.Start, End: e.End, Text: strings.Clone(e.Text)}
	}
	return cp
}

// CloneOverlay returns an independent copy of the emitter's runtime
// enable/disable overlay (the in-document "weblint:" directive state),
// nil when no overrides are active. Checker snapshots capture it so an
// incremental re-lint resumes with the directive state the original
// pass had at that point.
func (e *Emitter) CloneOverlay() map[string]bool {
	if len(e.overlay) == 0 {
		return nil
	}
	return maps.Clone(e.overlay)
}

// RestoreOverlay replaces the emitter's runtime overlay with a copy of
// m (nil or empty clears it).
func (e *Emitter) RestoreOverlay(m map[string]bool) {
	if len(e.overlay) > 0 {
		clear(e.overlay)
	}
	if len(m) == 0 {
		return
	}
	if e.overlay == nil {
		e.overlay = make(map[string]bool, len(m)+8)
	}
	maps.Copy(e.overlay, m)
}

// OverlayEquals reports whether the emitter's current runtime overlay
// equals m (empty and nil are equal).
func (e *Emitter) OverlayEquals(m map[string]bool) bool {
	return maps.Equal(e.overlay, m)
}
