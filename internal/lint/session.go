package lint

import (
	"slices"

	"weblint/internal/core"
	"weblint/internal/htmltoken"
	"weblint/internal/textpos"
	"weblint/internal/warn"
)

// This file implements incremental re-lint: a Session keeps a linted
// document alive together with the structured event stream of its last
// lint and periodic checker snapshots keyed to byte offsets. Applying
// an edit restores the nearest snapshot before the damage, re-lints
// forward, and — as soon as the live checker state again matches an old
// snapshot beyond the edit under the position shift — splices the
// cached remainder of the event stream (positions shifted) instead of
// linting the rest of the document. The result is byte-identical to a
// from-scratch lint of the edited text (the differential tests and
// FuzzIncremental enforce exactly that); when no snapshot re-syncs,
// the session simply lints to end of document, so correctness never
// depends on the splice firing.

// Edit is one span replacement against the session's current text:
// bytes [Start, End) are replaced by Text. Start == End inserts.
// Offsets are byte offsets; LSP UTF-16 ranges must be converted first
// (see textpos.Index.UTF16ToOffset). It is the span edit a Fix carries.
type Edit = warn.Edit

// span clamps e's offsets to a text of n bytes: an offset past either
// end moves to that end, and an end before the start becomes the
// start.
func span(e Edit, n int) (start, end int) {
	start = min(max(e.Start, 0), n)
	end = min(max(e.End, start), n)
	return start, end
}

// ApplyEdits applies edits to doc the way Session.Apply does: in order,
// each against the result of the previous one, with the same clamping.
// It edits doc in place and returns the result, which reuses doc's
// storage while it has the capacity.
func ApplyEdits(doc []byte, edits []Edit) []byte {
	for _, e := range edits {
		start, end := span(e, len(doc))
		doc = slices.Replace(doc, start, end, []byte(e.Text)...)
	}
	return doc
}

// defaultCheckpointSpacing balances re-lint window length (an edit
// re-lints from the previous checkpoint to the next one that re-syncs,
// so roughly 2× the spacing) against snapshot memory (a 1 MiB document
// keeps ~64 snapshots). A snapshot larger than the spacing stretches
// the gap after it to its own size (see gap), so snapshots never hold
// much more than the document spans, however deep its nesting.
const defaultCheckpointSpacing = 16 << 10

// checkpoint is one resumable position: the checker snapshot as of a
// token-boundary byte offset, plus how many events had been emitted.
// hor is the scan horizon at capture (see htmltoken.Tokenizer.Horizon):
// the tokenization producing this boundary examined no byte at or past
// hor, so the checkpoint can restore for any edit at offset >= hor —
// and for none earlier, since a scan decision (a quote-recovery
// lookahead, a raw-text close-tag match, a text run's peek past '<')
// may then no longer hold in the edited document.
type checkpoint struct {
	off    int
	events int
	hor    int
	snap   *core.Snapshot
}

// Session is an incrementally re-lintable document. Construct with
// NewSession (which performs the initial full lint) and push edits
// through Apply. A Session is NOT safe for concurrent use; callers
// serialise access (the LSP server guards each document's session
// with a mutex).
//
// A lint or re-lint records each enabled emission as a warn.Event: the
// Message the emitter formatted when it was emitted, plus the template
// and arguments of the few whose text holds a line number. An Apply
// shifts the cached events it keeps and re-renders only the text whose
// line number moved; Messages copies the recorded Messages out.
//
// Full-document checks (Linter.CheckString and friends) are unchanged
// and remain the right tool for one-shot lints; a Session earns its
// memory only when the same document is re-linted across edits.
type Session struct {
	l    *Linter
	name string
	text string
	ix   *textpos.Index // LF-only index of text

	em *warn.Emitter
	ck *core.Checker
	tz *htmltoken.Tokenizer

	events []warn.Event
	ckpts  []checkpoint

	spacing int
	rec     *[]warn.Event // where the event sink currently appends
	// horFloor is folded into the horizon of checkpoints taken during
	// an Apply window: the window's validity also rests on the restore
	// checkpoint's prefix tokenization, whose scans examined bytes up
	// to the restore point's own horizon.
	horFloor int

	stats SessionStats
}

// SessionStats counts how the session's Applies resolved, for tests
// and benchmarks that must prove the splice actually fires.
type SessionStats struct {
	// Applies counts individual edits applied.
	Applies int
	// Spliced counts edits resolved by re-syncing with a cached
	// checkpoint and splicing the cached suffix events.
	Spliced int
	// FullTail counts edits that re-linted to end of document because
	// no checkpoint beyond the edit re-synchronised.
	FullTail int
}

// NewSession lints text from scratch and returns a session that can
// re-lint it incrementally. name names the document in messages,
// exactly as in Linter.CheckString.
func NewSession(l *Linter, name, text string) *Session {
	return newSession(l, name, text, defaultCheckpointSpacing)
}

// newSession is NewSession with spacing as the target byte distance
// between checker snapshots. Smaller spacing shortens re-lint windows
// at the cost of snapshot memory; the tests and the fuzz target use
// tiny spacings to exercise the splice machinery on small documents.
func newSession(l *Linter, name, text string, spacing int) *Session {
	em := warn.NewEmitter(l.set)
	em.SetCatalog(l.catalog)
	s := &Session{
		l:       l,
		name:    name,
		text:    text,
		ix:      textpos.NewLF(text),
		em:      em,
		ck:      core.New(em, l.checkOpts(name)),
		tz:      htmltoken.New(""),
		spacing: spacing,
	}
	s.lintAll()
	return s
}

// Text returns the session's current document text.
func (s *Session) Text() string { return s.text }

// Index returns the LF line index of Text(), the convention message
// lines count in. It is read-only: Apply replaces it, never modifies
// it.
func (s *Session) Index() *textpos.Index { return s.ix }

// Name returns the document name used in messages.
func (s *Session) Name() string { return s.name }

// Stats returns how the session's edits resolved so far.
func (s *Session) Stats() SessionStats { return s.stats }

// Messages returns the current findings, byte-identical to what
// Linter.CheckString would return for the session's text: a sorted
// copy of the recorded messages, which share their Fix with the
// session (callers must not mutate a Fix).
func (s *Session) Messages() []warn.Message {
	msgs := make([]warn.Message, len(s.events))
	for i := range s.events {
		msgs[i] = s.events[i].Message
	}
	warn.SortByLine(msgs)
	return msgs
}

// Apply applies edits in order — each against the result of the
// previous, the LSP incremental-sync contract — re-linting only the
// damaged window of each. The window's findings are formatted as they
// are emitted, the cached ones are shifted; callers that want the
// findings ask Messages.
func (s *Session) Apply(edits []Edit) {
	for _, e := range edits {
		s.applyOne(e)
	}
}

// arm points the emitter's event sink at dst, which then receives each
// enabled emission as the Event holding its formatted Message.
func (s *Session) arm(dst *[]warn.Event) {
	s.rec = dst
	s.em.SetEventSink(func(ev warn.Event) { *s.rec = append(*s.rec, ev) })
}

// takeCheckpoint snapshots the checker at token-boundary offset off,
// and returns the offset the next checkpoint may come at.
func (s *Session) takeCheckpoint(dst []checkpoint, off, events int) ([]checkpoint, int) {
	hor := s.tz.Horizon()
	if hor < s.horFloor {
		hor = s.horFloor
	}
	snap := s.ck.Snapshot()
	return append(dst, checkpoint{off: off, events: events, hor: hor, snap: snap}), off + s.gap(snap)
}

// gap is the distance from a checkpoint holding snap to the next one:
// the spacing, or more when snap outgrows defaultCheckpointSpacing,
// scaled with the spacing so tests' tiny spacings stay as dense.
func (s *Session) gap(snap *core.Snapshot) int {
	return max(s.spacing, snap.Bytes()*s.spacing/defaultCheckpointSpacing)
}

// lintAll performs the initial full lint, recording events and taking
// checkpoints as it goes. Checkpoint 0 captures the fresh pre-document
// state so edits near the top of the document restore cleanly.
func (s *Session) lintAll() {
	s.events = s.events[:0]
	s.ckpts = s.ckpts[:0]
	s.em.Reset()
	s.arm(&s.events)
	s.ck.Reset(s.em, s.l.checkOpts(s.name))
	s.tz.Reset(s.text)
	s.horFloor = 0
	var next int
	s.ckpts, next = s.takeCheckpoint(s.ckpts, 0, 0)
	var tok htmltoken.Token
	for s.tz.NextInto(&tok) {
		s.ck.Step(&tok)
		if b := s.tz.Pos(); b >= next && !s.tz.InRawText() {
			s.ckpts, next = s.takeCheckpoint(s.ckpts, b, len(s.events))
		}
	}
	s.ck.Finish()
}

// applyOne applies a single edit. The re-lint window runs from the
// last checkpoint at or before the edit start; at every token boundary
// it tries to re-synchronise with the first surviving checkpoint past
// the replaced span. Candidates that fail the state compare (or whose
// suffix events cannot be shifted) are skipped and the lint continues
// to the next; with no survivor the window extends to end of document.
func (s *Session) applyOne(e Edit) {
	s.stats.Applies++
	start, end := span(e, len(s.text))
	newText := s.text[:start] + e.Text + s.text[end:]
	newIx := s.ix.Splice(start, end, e.Text, newText)
	sh := textpos.NewShift(s.ix, newIx, start, end, e.Text)

	// Restore point: the furthest checkpoint whose scan horizon the
	// edit does not reach. Offset alone is not enough — a token ending
	// at the checkpoint may owe its boundary to bytes at or past the
	// edit (a text run stops only because '<' follows, a raw-text run
	// because the close tag matches, a quote-recovery scan because no
	// closing quote turned up ahead) — the horizon is exactly how far
	// those decisions looked. Checkpoint 0 (hor 0) always qualifies.
	ri := 0
	for i := len(s.ckpts) - 1; i > 0; i-- {
		if s.ckpts[i].hor <= start {
			ri = i
			break
		}
	}
	rc := s.ckpts[ri]
	s.ck.Restore(rc.snap)
	s.tz.ResetAtLines(newText, rc.off, newIx.LineStarts())
	s.horFloor = rc.hor

	var win []warn.Event
	s.arm(&win)
	var winCk []checkpoint
	nextCk := rc.off + s.gap(rc.snap)

	// First sync candidate: the first checkpoint past the replaced
	// span. Checkpoints inside (restore, end) are damaged and will be
	// dropped by whichever splice path completes the apply.
	cand := ri + 1
	for cand < len(s.ckpts) && s.ckpts[cand].off < end {
		cand++
	}

	var tok htmltoken.Token
	for s.tz.NextInto(&tok) {
		s.ck.Step(&tok)
		b := s.tz.Pos()
		if s.tz.InRawText() {
			continue // raw mode carries state beyond the offset
		}
		for cand < len(s.ckpts) && s.ckpts[cand].off+sh.Delta < b {
			cand++
		}
		if cand < len(s.ckpts) && s.ckpts[cand].off+sh.Delta == b &&
			s.ckpts[cand].snap.LiveEquals(s.ck, sh) {
			if s.splice(ri, cand, win, winCk, sh, start, newText, newIx) {
				s.stats.Spliced++
				return
			}
			// Some suffix event's position could not be shifted; the
			// events before the NEXT candidate get re-emitted live
			// instead, so a later sync can still succeed.
			cand++
		}
		if b >= nextCk {
			winCk, nextCk = s.takeCheckpoint(winCk, b, len(win))
		}
	}
	s.ck.Finish()
	s.stats.FullTail++

	// No re-sync: prefix + window is the whole stream. Prefix
	// checkpoints whose horizon the edit reached are stale now — their
	// scan decisions may not hold in the new text — and are dropped
	// (the restore point itself always survives: its horizon passed
	// the selection test above).
	s.events = append(s.events[:rc.events], win...)
	for i := range winCk {
		winCk[i].events += rc.events
	}
	n := 0
	for _, c := range s.ckpts[:ri+1] {
		if c.hor <= start {
			s.ckpts[n] = c
			n++
		}
	}
	s.ckpts = append(s.ckpts[:n], winCk...)
	s.text, s.ix = newText, newIx
}

// splice commits a successful re-sync at old checkpoint cand: the
// event stream becomes prefix (before the restore point, unchanged) +
// window (just re-linted) + cached suffix with positions shifted, and
// the checkpoint list is rebuilt the same way, rebasing the suffix
// snapshots in place so later edits near the end of the document stay
// cheap. It reports false — committing nothing — when any suffix
// event's position cannot be mapped across the edit; suffix snapshots
// that cannot be rebased are silently dropped (they were an
// optimisation, not a correctness requirement).
func (s *Session) splice(ri, cand int, win []warn.Event, winCk []checkpoint,
	sh *textpos.Shift, start int, newText string, newIx *textpos.Index) bool {
	base := s.ckpts[ri].events
	syncEv := s.ckpts[cand].events
	suffix := s.events[syncEv:]
	shifted := make([]warn.Event, len(suffix))
	for i := range suffix {
		ev, ok := shiftEvent(suffix[i], sh)
		if !ok {
			return false
		}
		shifted[i] = ev
	}

	// Rebuild the stream in place: the suffix was value-copied into
	// shifted above, so overwriting s.events[base:] is safe, and reusing
	// the backing array spares a whole-stream allocation per edit.
	evs := append(s.events[:base], win...)
	evs = append(evs, shifted...)

	ckpts := make([]checkpoint, 0, ri+1+len(winCk)+len(s.ckpts)-cand)
	for _, c := range s.ckpts[:ri+1] {
		if c.hor <= start { // stale-horizon prefix checkpoints, as in applyOne
			ckpts = append(ckpts, c)
		}
	}
	for _, c := range winCk {
		c.events += base
		ckpts = append(ckpts, c)
	}
	// A rebased suffix checkpoint's validity now also rests on the
	// window tokenization that re-established its state, so its horizon
	// absorbs the live scan horizon at the sync point. Its own recorded
	// horizon shifts with the suffix bytes (an over-approximation for
	// the pre-sync extents folded into the running maximum — larger
	// horizons only make restores more conservative).
	hlive := s.tz.Horizon()
	for _, c := range s.ckpts[cand:] {
		if !c.snap.Rebase(sh) {
			continue
		}
		c.off += sh.Delta
		c.events = base + len(win) + (c.events - syncEv)
		if c.hor += sh.Delta; c.hor < hlive {
			c.hor = hlive
		}
		ckpts = append(ckpts, c)
	}

	s.events, s.ckpts = evs, ckpts
	s.text, s.ix = newText, newIx
	return true
}

// shiftSpan maps a fix-edit byte span across the edit. Point spans
// (insertions) map through Shift.Off; nonempty spans must lie entirely
// before the replaced region (unchanged) or entirely at/after it
// (shifted) — a span overlapping changed bytes cannot be mapped, since
// a from-scratch lint could attach different replacement text there.
func shiftSpan(start, end int, sh *textpos.Shift) (int, int, bool) {
	if start == end {
		ns, ok := sh.Off(start)
		return ns, ns, ok
	}
	switch {
	case end <= sh.P:
		return start, end, true
	case start >= sh.Q:
		return start + sh.Delta, end + sh.Delta, true
	}
	return 0, 0, false
}

// shiftEvent maps one cached event across the edit, copy-on-write:
// the message position via the exact line/column mapping, LineRef
// arguments via the line mapping, fix edit spans via shiftSpan. Only
// an event whose LineRef moved has its text rendered again. Any
// unmappable position fails the whole event (and with it the splice
// candidate).
func shiftEvent(ev warn.Event, sh *textpos.Shift) (warn.Event, bool) {
	if !warn.StaticLine(ev.ID) {
		line, col, ok := sh.Pos(ev.Line, ev.Col)
		if !ok {
			return ev, false
		}
		ev.Line, ev.Col = line, col
	}
	var args []any
	for i, a := range ev.Args {
		lr, isLine := a.(warn.LineRef)
		if !isLine {
			continue
		}
		nl, lok := sh.Line(int(lr))
		if !lok {
			return ev, false
		}
		if nl == int(lr) {
			continue
		}
		if args == nil {
			args = append([]any(nil), ev.Args...)
		}
		args[i] = warn.LineRef(nl)
	}
	if args != nil {
		ev.Args = args
		ev.Reformat()
	}
	if ev.Fix != nil {
		fix := &warn.Fix{Label: ev.Fix.Label, Edits: append([]warn.Edit(nil), ev.Fix.Edits...)}
		for i := range fix.Edits {
			ns, ne, sok := shiftSpan(fix.Edits[i].Start, fix.Edits[i].End, sh)
			if !sok {
				return ev, false
			}
			fix.Edits[i].Start, fix.Edits[i].End = ns, ne
		}
		ev.Fix = fix
	}
	return ev, true
}
