package lint

import (
	"testing"

	"weblint/internal/corpus"
	"weblint/internal/textpos"
	"weblint/internal/warn"
)

// benchSession builds a steady-state session over a 1 MiB document
// with a moderate error rate, mirroring the weblint-bench e14 guard
// cell.
func benchSession(b *testing.B) (*Session, string) {
	src := corpus.GenerateSized(7, 1<<20, corpus.Uniform(0.05))
	l := MustNew(Options{})
	s := NewSession(l, "bench.html", src)
	b.ResetTimer()
	return s, src
}

// BenchmarkSessionApply is the end-to-end per-edit cost the e14 guard
// bounds: apply + render, alternating a one-line edit and its revert.
func BenchmarkSessionApply(b *testing.B) {
	s, src := benchSession(b)
	mid := len(src) / 2
	fwd := Edit{Start: mid, End: mid, Text: "x"}
	rev := Edit{Start: mid, End: mid + 1, Text: ""}
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			s.Apply([]Edit{fwd})
		} else {
			s.Apply([]Edit{rev})
		}
		s.Messages()
	}
}

// BenchmarkSessionApplyNoRender isolates the splice machinery from
// message rendering.
func BenchmarkSessionApplyNoRender(b *testing.B) {
	s, src := benchSession(b)
	mid := len(src) / 2
	fwd := Edit{Start: mid, End: mid, Text: "x"}
	rev := Edit{Start: mid, End: mid + 1, Text: ""}
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			s.applyOne(fwd)
		} else {
			s.applyOne(rev)
		}
	}
}

// BenchmarkSessionRender isolates rendering the full findings list.
func BenchmarkSessionRender(b *testing.B) {
	s, _ := benchSession(b)
	var msgs []warn.Message
	for i := 0; i < b.N; i++ {
		msgs = s.Messages()
	}
	_ = msgs
}

// BenchmarkSessionIndex isolates the line-index rebuild of the edited
// text, the only other whole-document scan on the apply path.
func BenchmarkSessionIndex(b *testing.B) {
	_, src := benchSession(b)
	var ix *textpos.Index
	for i := 0; i < b.N; i++ {
		ix = textpos.NewLF(src)
	}
	_ = ix
}
