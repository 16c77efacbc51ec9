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

// Event is one emission captured before formatting: everything needed
// to re-render the Message byte-identically, with the position-valued
// parts still structured. The incremental Session records the event
// stream of a full lint, shifts positions (Line, Col, LineRef args,
// Fix edit offsets) across document edits, and re-renders — producing
// the same bytes a from-scratch lint of the edited document would.
//
// Suppressed emissions are captured too, as marker events carrying
// only the ID (see Suppressed), so the recorded stream can reproduce
// what a live check's SuppressionObserver would report.
type Event struct {
	// ID and Category are copied from the resolved definition.
	ID       string
	Category Category
	// Format is the template the message text renders from, with any
	// catalog override already applied.
	Format string
	// File, Line, Col position the message as emitted.
	File string
	Line int
	Col  int
	// Fix is a deep copy of the attached remediation (see cloneFix):
	// the event owns it, but rendered Messages share it, so shifting
	// must still copy rather than mutate.
	Fix *Fix
	// Args are the format arguments, with strings cloned so the event
	// never aliases the checked document.
	Args []any
	// Suppressed marks a suppression marker: the emission was dropped
	// because its ID is disabled, and only ID is meaningful. Markers
	// keep the recorded stream aligned with what a live check's
	// SuppressionObserver sees, so an incremental splice reproduces
	// per-rule suppression stats exactly. They render no Message.
	Suppressed bool
}

// Message renders the event into the Message emit would have written.
func (ev *Event) Message() Message {
	var text string
	if len(ev.Args) == 0 && !strings.ContainsRune(ev.Format, '%') {
		text = ev.Format
	} else {
		text = string(appendFormat(make([]byte, 0, len(ev.Format)+32), ev.Format, ev.Args))
	}
	return Message{
		ID:       ev.ID,
		Category: ev.Category,
		File:     ev.File,
		Line:     ev.Line,
		Col:      ev.Col,
		Text:     text,
		Fix:      ev.Fix,
	}
}

// SetEventSink installs a function that receives every emission as a
// structured Event, after the cancellation check: an enabled emission
// as the Event its Message renders from, a disabled one as a
// suppression marker. While an event sink is set it is the only
// destination: the emitter formats no message, writes nothing to its
// Sink and notifies no SuppressionObserver. Nil removes it; Reset also
// removes it, so pooled emitters never leak a recorder into the next
// check.
//
// Note this is distinct from the Recorder sink in sink.go, which
// collects formatted Messages plus suppressed IDs; the event sink
// captures pre-format structure for the incremental lint Session.
func (e *Emitter) SetEventSink(fn func(Event)) { e.eventSink = fn }

// cloneArgs deep-copies format arguments for retention in an Event:
// strings are cloned (checker args may alias the checked document,
// e.g. a token's raw text), value types are copied as-is.
func cloneArgs(args []any) []any {
	if len(args) == 0 {
		return nil
	}
	out := make([]any, len(args))
	for i, a := range args {
		if s, ok := a.(string); ok {
			out[i] = strings.Clone(s)
		} else {
			out[i] = a
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
