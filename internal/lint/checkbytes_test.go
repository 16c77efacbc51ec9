package lint

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"weblint/internal/bufpool"
	"weblint/internal/corpus"
	"weblint/internal/warn"
)

// checkSorted runs Check without a deadline and sorts the stream, the
// way CheckString returns it.
func checkSorted(t *testing.T, l *Linter, name string, src []byte) []warn.Message {
	t.Helper()
	var c warn.Collector
	if err := l.Check(context.Background(), name, src, &c); err != nil {
		t.Fatal(err)
	}
	warn.SortByLine(c.Messages)
	return c.Messages
}

// TestCheckBytesMatchesCheckString: the zero-copy path must produce
// exactly the messages the string path produces.
func TestCheckBytesMatchesCheckString(t *testing.T) {
	l := MustNew(Options{})
	src := corpus.Generate(corpus.Config{
		Seed: 3, Sections: 6,
		Errors: corpus.ErrorRates{Overlap: 0.4, DropClose: 0.3, Misspell: 0.2},
	})
	want := l.CheckString("doc.html", src)
	got := checkSorted(t, l, "doc.html", []byte(src))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Check differs from CheckString:\n got %v\nwant %v", got, want)
	}
}

// TestCheckBytesBufferReuse: once Check returns, the caller may
// overwrite the buffer — earlier messages must be unaffected (they own
// their text) and later checks over the recycled buffer must be
// correct. This is the contract the pooled read paths depend on.
func TestCheckBytesBufferReuse(t *testing.T) {
	l := MustNew(Options{})
	a := corpus.Generate(corpus.Config{Seed: 1, Sections: 4,
		Errors: corpus.ErrorRates{Overlap: 0.5}})
	b := corpus.Generate(corpus.Config{Seed: 2, Sections: 4,
		Errors: corpus.ErrorRates{DropClose: 0.5}})

	wantA := l.CheckString("a.html", a)
	wantB := l.CheckString("b.html", b)

	buf := make([]byte, 0, max(len(a), len(b))+1)
	buf = append(buf[:0], a...)
	gotA := checkSorted(t, l, "a.html", buf)

	// Recycle the buffer for a different document.
	buf = append(buf[:0], b...)
	gotB := checkSorted(t, l, "b.html", buf)

	// And clobber it entirely.
	for i := range buf {
		buf[i] = 'x'
	}

	if !reflect.DeepEqual(gotA, wantA) {
		t.Errorf("messages from first check corrupted by buffer reuse")
	}
	if !reflect.DeepEqual(gotB, wantB) {
		t.Errorf("messages from recycled-buffer check differ")
	}
}

// TestReadFilePooledBuffer: repeated ReadFile + Check rounds must stay
// correct while sharing pooled read buffers, including interleaved
// sizes (a big document then a small one must not see stale bytes).
func TestReadFilePooledBuffer(t *testing.T) {
	l := MustNew(Options{})
	dir := t.TempDir()
	docs := map[string]string{
		filepath.Join(dir, "big.html"):   corpus.GenerateSized(7, 256<<10, corpus.ErrorRates{}),
		filepath.Join(dir, "small.html"): "<html><head><title>t</title></head><body>tiny</body></html>",
	}
	want := map[string][]warn.Message{}
	for path, src := range docs {
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		want[path] = l.CheckString(path, src)
	}

	for i := 0; i < 4; i++ {
		for _, name := range []string{"big.html", "small.html"} {
			path := filepath.Join(dir, name)
			buf := bufpool.Get()
			if err := ReadFile(path, buf); err != nil {
				t.Fatal(err)
			}
			got := checkSorted(t, l, path, buf.Bytes())
			bufpool.Put(buf)
			if !reflect.DeepEqual(got, want[path]) {
				t.Fatalf("iteration %d: %s messages differ", i, name)
			}
		}
	}
}

// TestCheckFilePooledRead: CheckFile through the pooled read path must
// match CheckString over the same content, across repeated and
// concurrent use.
func TestCheckFilePooledRead(t *testing.T) {
	l := MustNew(Options{})
	dir := t.TempDir()
	src := corpus.Generate(corpus.Config{Seed: 11, Sections: 5,
		Errors: corpus.ErrorRates{Overlap: 0.3}})
	path := filepath.Join(dir, "page.html")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	want := l.CheckString(path, src)

	for i := 0; i < 3; i++ {
		got, err := l.CheckFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d: CheckFile differs from CheckString", i)
		}
	}

	t.Run("concurrent", func(t *testing.T) {
		done := make(chan []int, 8)
		for g := 0; g < 8; g++ {
			go func() {
				var bad []int
				for i := 0; i < 20; i++ {
					got, err := l.CheckFile(path)
					if err != nil || !reflect.DeepEqual(got, want) {
						bad = append(bad, i)
					}
				}
				done <- bad
			}()
		}
		for g := 0; g < 8; g++ {
			if bad := <-done; len(bad) > 0 {
				t.Fatalf("concurrent CheckFile diverged on iterations %v", bad)
			}
		}
	})
}

// TestCheckFileRecycledBufferMatchesFresh: two same-sized files read
// through the pooled buffer land on the same bytes, and the second
// must not be checked with names cached from the first (<TT> read back
// as the <TD> now in its place, dropping required-context). The
// reference is a fresh Linter, since a polluted one's CheckString goes
// wrong the same way.
func TestCheckFileRecycledBufferMatchesFresh(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.html")
	second := filepath.Join(dir, "second.html")
	const tt = "<HTML><BODY><TT>x</TT></BODY></HTML>"
	td := strings.ReplaceAll(tt, "TT", "TD")
	if err := os.WriteFile(first, []byte(tt), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(second, []byte(td), 0o644); err != nil {
		t.Fatal(err)
	}

	l := MustNew(Options{})
	if _, err := l.CheckFile(first); err != nil {
		t.Fatal(err)
	}
	got, err := l.CheckFile(second)
	if err != nil {
		t.Fatal(err)
	}
	want := MustNew(Options{}).CheckString(second, td)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CheckFile over a recycled buffer differs from a fresh check:\n got %v\nwant %v", got, want)
	}
}
