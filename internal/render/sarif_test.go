package render

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"weblint/internal/corpus"
	"weblint/internal/lint"
	"weblint/internal/warn"
)

// chunkRecorder is an io.Writer that keeps what it is given and the
// largest single write.
type chunkRecorder struct {
	bytes.Buffer
	writes, largest int
}

func (c *chunkRecorder) Write(p []byte) (int, error) {
	c.writes++
	c.largest = max(c.largest, len(p))
	return c.Buffer.Write(p)
}

// requireReferenceSARIF renders msgs through NewSARIF and through the
// reflective reference, and fails unless the bytes are identical and
// every write stayed within one chunk. It returns the number of writes.
func requireReferenceSARIF(t *testing.T, name string, msgs []warn.Message) int {
	t.Helper()
	want, err := referenceSARIF(msgs)
	if err != nil {
		t.Fatalf("%s: reference: %v", name, err)
	}
	var got chunkRecorder
	r := NewSARIF(&got)
	for _, m := range msgs {
		r.Write(m)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("%s: Close: %v", name, err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		at := 0
		for at < min(got.Len(), len(want)) && got.Bytes()[at] == want[at] {
			at++
		}
		t.Fatalf("%s: SARIF differs from the reference at byte %d of %d:\n--- got ---\n%s\n--- want ---\n%s",
			name, at, len(want), excerpt(got.Bytes(), at), excerpt(want, at))
	}
	if got.largest > sarifChunk {
		t.Errorf("%s: a single write of %d bytes, want at most %d", name, got.largest, sarifChunk)
	}
	return got.writes
}

// excerpt returns up to 200 bytes of b around offset at.
func excerpt(b []byte, at int) []byte {
	return b[max(0, at-100):min(len(b), at+100)]
}

// TestSARIFMatchesReference: the appending encoder writes exactly the
// bytes json.MarshalIndent writes for the log's struct form, over the
// lint suite, error-dense corpus documents (whose findings carry
// fixes) and the empty stream.
func TestSARIFMatchesReference(t *testing.T) {
	l := lint.MustNew(lint.Options{Pedantic: true})

	paths, err := filepath.Glob(filepath.Join("..", "lint", "testdata", "suite", "*.html"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("lint suite: %v (%d files)", err, len(paths))
	}
	var suite []warn.Message
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		msgs := l.CheckString(filepath.Base(path), string(src))
		requireReferenceSARIF(t, path, msgs)
		suite = append(suite, msgs...)
	}
	requireReferenceSARIF(t, "whole suite", suite)

	var dense []warn.Message
	for seed := int64(1); seed <= 4; seed++ {
		src := corpus.GenerateSized(seed, 64<<10, corpus.Uniform(0.25))
		dense = append(dense, l.CheckString("dense.html", src)...)
	}
	fixes := 0
	for _, m := range dense {
		if m.Fix != nil {
			fixes++
		}
	}
	if fixes == 0 {
		t.Fatalf("error-dense corpus: none of %d findings carries a fix", len(dense))
	}
	if writes := requireReferenceSARIF(t, "error-dense corpus", dense); writes < 4 {
		t.Fatalf("error-dense corpus written in %d chunks; the test needs several", writes)
	}

	requireReferenceSARIF(t, "empty stream", nil)
}

// FuzzSARIF builds message streams from fuzzed strings and integers
// and requires the encoder to match the reflective reference byte for
// byte: escaping of every string field, the startLine floor, the
// omitted zero startColumn, unknown rule IDs and categories, and fixes
// with nil, empty, insert-only and multiple edits.
func FuzzSARIF(f *testing.F) {
	f.Add("img-alt", "IMG does not have ALT text defined", "page.html", `insert ALT=""`, ` ALT=""`, 4, 1, 1, 66, 66, uint8(3))
	f.Add("attribute-value", "bad \xff\xfe value \xc3(", "\xe2\x82", "label\xff", "\xed\xa0\x80", 1, 0, 0, 0, 0, uint8(0))
	f.Add("doctype-first", "ctl \x00\x01\x1f\x7f\b\f\n\r\t end", "a\tb.html", "\x1b[0m", "\r\n", 0, 0, 1, 3, 9, uint8(4))
	f.Add("no-such-rule", "line\u2028para\u2029 ok \ufffd", "sep\u2028.html", "\u2029", "\u2028", -7, -3, 7, 9, 3, uint8(1))
	f.Add("here-anchor", `<script>alert("x") & 'y' \ </script>`, `C:\site\<a>&.html`, `<>&"\`, `"&amp;"`, 1<<40, 1<<20, 2, -1, 5, uint8(2))
	f.Add("", "", "", "", "", 0, 0, -1, 0, 0, uint8(5))
	f.Fuzz(func(t *testing.T, id, text, file, label, edit string, line, col, cat, start, end int, shape uint8) {
		m := warn.Message{ID: id, Category: warn.Category(cat), File: file, Line: line, Col: col, Text: text}
		switch shape % 6 {
		case 1:
			m.Fix = &warn.Fix{Label: label} // nil edits
		case 2:
			m.Fix = &warn.Fix{Label: label, Edits: []warn.Edit{}}
		case 3:
			m.Fix = &warn.Fix{Label: label, Edits: []warn.Edit{{Start: start, End: start, Text: edit}}}
		case 4:
			m.Fix = &warn.Fix{Label: label, Edits: []warn.Edit{{Start: start, End: end}, {Start: end, End: end + 1, Text: edit}}}
		}
		// A registered rule alongside the fuzzed one, before and after
		// it in the stream, so rule indexes and sorting are exercised.
		known := warn.Message{ID: "img-alt", Category: warn.Warning, File: file, Line: 2, Text: text}
		requireReferenceSARIF(t, "fuzzed stream", []warn.Message{known, m, m, known})
	})
}

// failingWriter accepts limit bytes, then fails every write; it
// counts the writes made after the first failure.
type failingWriter struct {
	limit, written int
	failed         bool
	after          int
}

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.failed {
		w.after++
		return 0, errWriterFull
	}
	if n := w.limit - w.written; len(p) > n {
		w.written, w.failed = w.limit, true
		return n, errWriterFull
	}
	w.written += len(p)
	return len(p), nil
}

// TestSARIFCloseReportsFirstWriteError: once the log is written in
// chunks Close can fail partway through; it must return the writer's
// error and stop writing there.
func TestSARIFCloseReportsFirstWriteError(t *testing.T) {
	l := lint.MustNew(lint.Options{})
	msgs := l.CheckString("dense.html", corpus.GenerateSized(3, 256<<10, corpus.Uniform(0.25)))
	full, err := referenceSARIF(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 3*sarifChunk {
		t.Fatalf("log of %d bytes is too small to fail mid-stream", len(full))
	}
	for _, limit := range []int{0, 1, sarifChunk - 1, sarifChunk, sarifChunk + 1, 2*sarifChunk + 7, len(full) - 1} {
		w := &failingWriter{limit: limit}
		r := NewSARIF(w)
		for _, m := range msgs {
			r.Write(m)
		}
		if err := r.Close(); !errors.Is(err, errWriterFull) {
			t.Errorf("limit %d: Close = %v, want %v", limit, err, errWriterFull)
		}
		if !w.failed || w.after != 0 {
			t.Errorf("limit %d: failed=%v, %d writes after the failure", limit, w.failed, w.after)
		}
	}
}

// TestSARIFCloseAllocationsFlat: Close allocates the same whether the
// stream holds one copy of a document's findings or twenty, so nothing
// it builds grows with the number of findings.
func TestSARIFCloseAllocationsFlat(t *testing.T) {
	l := lint.MustNew(lint.Options{})
	one := l.CheckString("dense.html", corpus.GenerateSized(5, 64<<10, corpus.Uniform(0.25)))
	var twenty []warn.Message
	for range 20 {
		twenty = append(twenty, one...)
	}
	closeAllocs := func(msgs []warn.Message) float64 {
		r := &sarifRenderer{w: io.Discard, msgs: msgs}
		return testing.AllocsPerRun(5, func() {
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := closeAllocs(one), closeAllocs(twenty); large > small {
		t.Errorf("Close allocates %.0f times for %d findings but %.0f for %d", small, len(one), large, len(twenty))
	}
}
