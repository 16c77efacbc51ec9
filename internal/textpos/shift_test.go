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

// TestSpliceAndShift checks the incremental index and position mapping
// against brute force over random span edits. In both conventions,
// Splice must equal a rebuild of the edited text; the alphabets include
// '\r', so edits split and join "\r\n" pairs and lone CRs. Every
// mapping Shift decides must land where a from-scratch LF index of the
// edited text puts the byte, and the unset markers line 0 and offset
// -1 always map to themselves.
func TestSpliceAndShift(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 4000; iter++ {
		old := randText(r, r.Intn(40), "ab\r\n")
		start := r.Intn(len(old) + 1)
		end := start + r.Intn(len(old)-start+1)
		repl := randText(r, r.Intn(8), "x\r\n")
		if r.Intn(4) == 0 {
			repl = strings.Repeat("x", end-start) // length-preserving edit
		}
		newSrc := old[:start] + repl + old[end:]

		for _, build := range []func(string) *Index{New, NewLF} {
			if got, want := build(old).Splice(start, end, repl, newSrc).LineStarts(), build(newSrc).LineStarts(); !slices.Equal(got, want) {
				t.Fatalf("Splice(%q, %d, %d, %q) = %v, want %v (lf=%v)", old, start, end, repl, got, want, build(old).lf)
			}
		}

		oldIx, newIx := NewLF(old), NewLF(newSrc)
		s := NewShift(oldIx, newIx, start, end, repl)
		// Unset markers (line 0, offset -1) sit before every edit, so
		// they map to themselves: the checker's state compare relies
		// on it instead of special-casing them.
		if l, ok := s.Line(0); l != 0 || !ok {
			t.Fatalf("%q edit [%d,%d)->%q: Line(0) = %d,%v, want 0,true", old, start, end, repl, l, ok)
		}
		if o, ok := s.Off(-1); o != -1 || !ok {
			t.Fatalf("%q edit [%d,%d)->%q: Off(-1) = %d,%v, want -1,true", old, start, end, repl, o, ok)
		}
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
