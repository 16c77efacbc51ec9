// Package fixit applies the machine-applicable fixes the checker
// attaches to diagnostics (warn.Message.Fix): byte-span edits over the
// original source document.
//
// Apply merges the edits of every fixable message in stream order,
// detecting and dropping conflicting fixes deterministically — the
// first fix to claim a span wins, later fixes touching it are skipped
// and reported. The merge is a pure function of (source, message
// stream), so applying the fixes of a parallel -j N run rewrites the
// document byte-identically to a sequential run.
//
// The contract the checker's fix builders maintain, and the suite-wide
// property test enforces: applying the fixes and re-linting leaves no
// fixable finding behind and introduces no new finding, and a second
// apply pass is a byte-identical no-op.
package fixit

import (
	"fmt"
	"sort"
	"strings"

	"weblint/internal/warn"
)

// Outcome records what happened to one fixable message during Apply.
type Outcome struct {
	// ID and Line identify the message the fix came from.
	ID   string
	Line int
	// Label is the fix's human-readable label.
	Label string
	// Applied reports whether the fix's edits made it into the
	// output.
	Applied bool
	// Reason explains a skip ("conflicts with an earlier fix",
	// "invalid edit span"); empty for applied fixes.
	Reason string
}

// Report summarises one Apply: how many fixes were applied, how many
// were skipped, and the per-fix outcomes in message-stream order.
type Report struct {
	// Applied and Skipped count fixes (not edits).
	Applied int
	Skipped int
	// Outcomes has one entry per fixable message, in stream order.
	Outcomes []Outcome
}

// Changed reports whether any fix was applied.
func (r *Report) Changed() bool { return r.Applied > 0 }

// String renders the report as "N applied, M skipped".
func (r *Report) String() string {
	return fmt.Sprintf("%d applied, %d skipped", r.Applied, r.Skipped)
}

// Apply rewrites src with the fixes carried by msgs and returns the
// new document and a report. Messages without a fix are ignored, so
// the full diagnostic stream of a check can be passed as-is.
//
// Fixes are considered in stream order. A fix is skipped — never
// partially applied — when any of its edits is out of bounds, when its
// own edits overlap each other, or when an edit overlaps an edit of an
// already-accepted fix. Overlap is tested on half-open spans, so
// insertions at the boundary of a replaced span, and any number of
// insertions at the same point, coexist; same-point insertions apply
// in stream order.
func Apply(src string, msgs []warn.Message) (string, Report) {
	var rep Report
	var accepted editSet
	for _, m := range msgs {
		if m.Fix == nil {
			continue
		}
		out := Outcome{ID: m.ID, Line: m.Line, Label: m.Fix.Label}
		out.Reason = accepted.accept(m.Fix.Edits, len(src))
		out.Applied = out.Reason == ""
		if out.Applied {
			rep.Applied++
		} else {
			rep.Skipped++
		}
		rep.Outcomes = append(rep.Outcomes, out)
	}
	if len(accepted.edits) == 0 {
		return src, rep
	}
	return applyEdits(src, accepted.edits), rep
}

// ApplyAt rewrites src with fixes whose edit offsets address a larger
// document in which src starts at offset base, by Apply's rules: in
// order, each fix is applied whole or skipped. The result never
// aliases src. The checker uses it to build the text a META
// relocation inserts: the tag's text with its findings' in-tag fixes
// applied, byte-identical to applying those fixes in place.
func ApplyAt(src string, base int, fixes []*warn.Fix) string {
	var accepted editSet
	var shifted []warn.Edit
	for _, f := range fixes {
		shifted = shifted[:0]
		for _, e := range f.Edits {
			shifted = append(shifted, warn.Edit{Start: e.Start - base, End: e.End - base, Text: e.Text})
		}
		accepted.accept(shifted, len(src))
	}
	return applyEdits(src, accepted.edits)
}

// validEdits reports whether every edit is in bounds and no two edits
// of the same fix overlap.
func validEdits(edits []warn.Edit, n int) bool {
	if len(edits) == 0 {
		return false
	}
	for i, e := range edits {
		if e.Start < 0 || e.End < e.Start || e.End > n {
			return false
		}
		for _, f := range edits[:i] {
			if overlap(e, f) {
				return false
			}
		}
	}
	return true
}

// editSet holds the accepted edits ordered the way applyEdits renders
// them — by start offset; at equal offsets insertions before span
// replacements, otherwise acceptance order — so conflict checks are a
// binary search plus a bounded neighbour scan instead of a linear
// sweep over everything accepted (checker streams emit fixes in
// near-document order, so a pathological document with a fix per byte
// stays O(n log n) rather than quadratic).
type editSet struct {
	edits []warn.Edit
}

// insertPos returns where e belongs: after every edit with a smaller
// start, after same-start insertions (stream order), and — when e is
// an insertion — before a same-start span replacement.
func (s *editSet) insertPos(e warn.Edit) int {
	zero := e.Start == e.End
	return sort.Search(len(s.edits), func(k int) bool {
		f := s.edits[k]
		if f.Start != e.Start {
			return f.Start > e.Start
		}
		return zero && f.Start != f.End
	})
}

// accept adds one fix's edits to the set when they are valid for an
// n-byte document and overlap no accepted edit; otherwise it leaves
// the set as it was and returns the reason the fix was skipped.
func (s *editSet) accept(edits []warn.Edit, n int) string {
	switch {
	case !validEdits(edits, n):
		return "invalid edit span"
	case s.conflictsAny(edits):
		return "conflicts with an earlier fix"
	}
	for _, e := range edits {
		s.insert(e)
	}
	return ""
}

// conflictsAny reports whether any edit overlaps an accepted edit.
func (s *editSet) conflictsAny(edits []warn.Edit) bool {
	for _, e := range edits {
		i := sort.Search(len(s.edits), func(k int) bool { return s.edits[k].Start >= e.Start })
		// Before i: the only accepted edit that can reach past e.Start
		// is the last one — spans are pairwise non-overlapping and a
		// same-start span sorts after its start's insertions.
		if i > 0 && overlap(s.edits[i-1], e) {
			return true
		}
		for k := i; k < len(s.edits) && s.edits[k].Start < e.End; k++ {
			if overlap(s.edits[k], e) {
				return true
			}
		}
	}
	return false
}

// insert adds a non-conflicting edit at its ordered position.
func (s *editSet) insert(e warn.Edit) {
	i := s.insertPos(e)
	s.edits = append(s.edits, warn.Edit{})
	copy(s.edits[i+1:], s.edits[i:])
	s.edits[i] = e
}

// overlap tests half-open span overlap. Zero-width edits (insertions)
// conflict only when strictly inside the other span, so inserting at
// the boundary of a deletion — or several insertions at one point —
// is fine.
func overlap(a, b warn.Edit) bool {
	return a.Start < b.End && b.Start < a.End
}

// applyEdits rewrites src with a set of mutually non-conflicting
// edits. Edits are ordered by start offset; at equal offsets,
// insertions go before span replacements (so text inserted at the
// start of a deleted span survives), and otherwise acceptance order is
// kept, which makes same-point insertions apply in stream order.
func applyEdits(src string, edits []warn.Edit) string {
	sorted := make([]warn.Edit, len(edits))
	copy(sorted, edits)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Start == a.End && b.Start != b.End
	})
	var b strings.Builder
	b.Grow(len(src) + grownBy(sorted))
	last := 0
	for _, e := range sorted {
		// Non-conflicting edits sorted this way never regress: each
		// edit starts at or after the previous edit's end.
		b.WriteString(src[last:e.Start])
		b.WriteString(e.Text)
		last = e.End
	}
	b.WriteString(src[last:])
	return b.String()
}

// grownBy estimates the net size change of the edits.
func grownBy(edits []warn.Edit) int {
	n := 0
	for _, e := range edits {
		n += len(e.Text) - (e.End - e.Start)
	}
	if n < 0 {
		return 0
	}
	return n
}

// Applier is a warn.Sink that retains fixable messages from a
// diagnostics stream — the composition point with the streaming
// pipeline: install it (or chain it) as the sink of any check, then
// call Apply once the check finishes.
type Applier struct {
	// Next, when non-nil, receives every message after recording.
	Next warn.Sink
	// Fixable are the retained messages carrying fixes.
	Fixable []warn.Message
}

// Write records fixable messages and forwards to Next.
func (a *Applier) Write(m warn.Message) bool {
	if m.Fix != nil {
		a.Fixable = append(a.Fixable, m)
	}
	if a.Next == nil {
		return true
	}
	return a.Next.Write(m)
}

// Apply rewrites src with the fixes collected so far.
func (a *Applier) Apply(src string) (string, Report) {
	return Apply(src, a.Fixable)
}
