package lint

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"weblint/internal/fixit"
	"weblint/internal/warn"
)

// addSuiteSeeds feeds every suite sample to the fuzzer as seed input.
func addSuiteSeeds(f *testing.F) {
	f.Helper()
	entries, err := os.ReadDir(filepath.Join("testdata", "suite"))
	if err != nil {
		f.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".html" {
			continue
		}
		data, err := os.ReadFile(filepath.Join("testdata", "suite", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
		n++
	}
	if n < 25 {
		f.Fatalf("only %d suite seeds", n)
	}
}

// FuzzCheckString: linting never panics, and the returned messages
// honour the SortByLine contract (grouped by file, non-decreasing
// lines, sane positions). On top of that it pins the monotone line
// cursor in checkEntities: raw (streamed, unsorted) emission of the
// entity-scan findings must carry non-decreasing line numbers within
// each of its two passes — the entity/'&' pass and the '<' pass run
// separately over each text run, so each class is monotone on its own
// but the two interleave (a '<' early in a run is emitted after an
// unknown entity late in it). A cursor bug that ever walked backwards
// would break the monotonicity of its own class. That raw pass runs
// through Check under a cancellable context, and its stream, sorted by
// line, must equal CheckString's slice.
func FuzzCheckString(f *testing.F) {
	addSuiteSeeds(f)
	f.Add("<p ALIGN='a' align=\"b\" Align=c x><a name=x><h3>")
	f.Add("x & y\n<\n&bogus;\n&#x41 <")
	l := MustNew(Options{Pedantic: true})
	f.Fuzz(func(t *testing.T, src string) {
		msgs := l.CheckString("fuzz.html", src)
		for i, m := range msgs {
			if m.Line < 1 {
				t.Fatalf("message %d has line %d: %+v", i, m.Line, m)
			}
			if m.File != "fuzz.html" {
				t.Fatalf("message %d names file %q", i, m.File)
			}
			if i > 0 && msgs[i-1].Line > m.Line {
				t.Fatalf("messages out of line order at %d: %d after %d", i, m.Line, msgs[i-1].Line)
			}
			if warn.Lookup(m.ID) == nil {
				t.Fatalf("message %d has unregistered ID %q", i, m.ID)
			}
		}

		// Raw emission order, per entity-scan class, through Check under
		// a context that could end but never does: the deadline branch
		// must deliver the same stream as the slice path.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var raw []warn.Message
		ampLine, ltLine := 0, 0 // last line seen per pass
		err := l.Check(ctx, "fuzz.html", []byte(src), warn.SinkFunc(func(m warn.Message) bool {
			raw = append(raw, m)
			switch {
			case m.ID == "unknown-entity" || m.ID == "unterminated-entity" ||
				(m.ID == "metacharacter" && strings.Contains(m.Text, "&amp;")):
				if m.Line < ampLine {
					t.Fatalf("entity-pass line went backwards: %d after %d (%s %q)", m.Line, ampLine, m.ID, m.Text)
				}
				ampLine = m.Line
			case m.ID == "metacharacter" && strings.Contains(m.Text, "&lt;"):
				if m.Line < ltLine {
					t.Fatalf("'<'-pass line went backwards: %d after %d (%q)", m.Line, ltLine, m.Text)
				}
				ltLine = m.Line
			}
			return true
		}))
		if err != nil {
			t.Fatal(err)
		}
		warn.SortByLine(raw)
		if !reflect.DeepEqual(raw, msgs) {
			t.Fatalf("Check stream, sorted, differs from CheckString:\n got %v\nwant %v", raw, msgs)
		}
	})
}

// FuzzApplyFixes: every fix the checker attaches has in-bounds,
// non-overlapping edits (fixit reports any violation as a skip, which
// the checker's builders never trigger); applying them never panics;
// and a second apply over the re-lint of the fixed document is a
// byte-identical no-op.
func FuzzApplyFixes(f *testing.F) {
	addSuiteSeeds(f)
	f.Add("<IMG src=x one.gif><A HREF='y>z</A><BR/></BR></P>&")
	l := MustNew(Options{})
	f.Fuzz(func(t *testing.T, src string) {
		msgs := l.CheckString("fuzz.html", src)
		fixed, rep := fixit.Apply(src, msgs)
		for _, o := range rep.Outcomes {
			if o.Reason == "invalid edit span" {
				t.Fatalf("checker emitted an out-of-bounds fix: %s line %d (%s)", o.ID, o.Line, o.Label)
			}
		}
		relint := l.CheckString("fuzz.html", fixed)
		fixed2, rep2 := fixit.Apply(fixed, relint)
		if fixed2 != fixed {
			t.Fatalf("second apply not a no-op:\nsrc:    %q\nfixed:  %q\nfixed2: %q", src, fixed, fixed2)
		}
		if rep2.Applied != 0 {
			t.Fatalf("re-lint of fixed document still has %d applicable fixes (src %q)", rep2.Applied, src)
		}
	})
}
