package textpos

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// randText draws a short document over a tiny alphabet, so newlines and
// edits at line boundaries are common.
func randText(r *rand.Rand, n int, alphabet string) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return b.String()
}

// TestSpliceLFAndShift checks the incremental index and position
// mapping against brute force over random span edits: SpliceLF must
// equal NewLF of the edited text, and every mapping Shift decides must
// land where a from-scratch index of the edited text puts the byte.
func TestSpliceLFAndShift(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		old := randText(r, r.Intn(40), "ab\n")
		start := r.Intn(len(old) + 1)
		end := start + r.Intn(len(old)-start+1)
		repl := randText(r, r.Intn(8), "x\n")
		if r.Intn(4) == 0 {
			repl = strings.Repeat("x", end-start) // length-preserving edit
		}
		newSrc := old[:start] + repl + old[end:]

		oldIx, newIx := NewLF(old), NewLF(newSrc)
		if got, want := SpliceLF(oldIx, start, end, repl, newSrc).LineStarts(), newIx.LineStarts(); !slices.Equal(got, want) {
			t.Fatalf("SpliceLF(%q, %d, %d, %q) = %v, want %v", old, start, end, repl, got, want)
		}

		s := NewShift(oldIx, newIx, start, end, repl)
		for o := 0; o <= len(old); o++ {
			inside := o >= start && o < end
			want := o
			if o >= end {
				want = o + s.Delta
			}
			if n, ok := s.Off(o); ok && !inside && n != want {
				t.Fatalf("%q edit [%d,%d)->%q: Off(%d) = %d, want %d", old, start, end, repl, o, n, want)
			} else if !ok && !inside {
				t.Fatalf("%q edit [%d,%d)->%q: Off(%d) undecided outside the span", old, start, end, repl, o)
			}
			if inside || o == len(old) {
				continue
			}
			line := oldIx.OffsetLine(o)
			col := o - oldIx.LineStart(line) + 1
			wantLine := newIx.OffsetLine(want)
			wantCol := want - newIx.LineStart(wantLine) + 1
			if nl, nc, ok := s.Pos(line+1, col); !ok || nl != wantLine+1 || nc != wantCol {
				t.Fatalf("%q edit [%d,%d)->%q: Pos(%d,%d) = %d,%d,%v, want %d,%d",
					old, start, end, repl, line+1, col, nl, nc, ok, wantLine+1, wantCol)
			}
			if nl, ok := s.Line(line + 1); ok && nl != wantLine+1 {
				t.Fatalf("%q edit [%d,%d)->%q: Line(%d) = %d, want %d", old, start, end, repl, line+1, nl, wantLine+1)
			}
			if nl, nc, ok := s.Pos(line+1, 0); ok && (nl != wantLine+1 || nc != 0) {
				t.Fatalf("%q edit [%d,%d)->%q: Pos(%d,0) = %d,%d", old, start, end, repl, line+1, nl, nc)
			}
		}
	}
}
