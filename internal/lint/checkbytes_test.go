package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"weblint/internal/corpus"
)

// TestCheckBytesMatchesCheckString: the zero-copy path must produce
// exactly the messages the string path produces.
func TestCheckBytesMatchesCheckString(t *testing.T) {
	l := MustNew(Options{})
	src := corpus.Generate(corpus.Config{
		Seed: 3, Sections: 6,
		Errors: corpus.ErrorRates{Overlap: 0.4, DropClose: 0.3, Misspell: 0.2},
	})
	want := l.CheckString("doc.html", src)
	got := l.CheckBytes("doc.html", []byte(src))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("CheckBytes differs from CheckString:\n got %v\nwant %v", got, want)
	}
}

// TestCheckBytesBufferReuse: once CheckBytes returns, the caller may
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
	gotA := l.CheckBytes("a.html", buf)

	// Recycle the buffer for a different document.
	buf = append(buf[:0], b...)
	gotB := l.CheckBytes("b.html", buf)

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

// TestCheckReaderPooledBuffer: repeated CheckReader calls must stay
// correct while sharing pooled read buffers, including interleaved
// sizes (a big document then a small one must not see stale bytes).
func TestCheckReaderPooledBuffer(t *testing.T) {
	l := MustNew(Options{})
	big := corpus.GenerateSized(7, 256<<10, corpus.ErrorRates{})
	small := "<html><head><title>t</title></head><body>tiny</body></html>"

	wantBig := l.CheckString("big.html", big)
	wantSmall := l.CheckString("small.html", small)

	for i := 0; i < 4; i++ {
		gotBig, err := l.CheckReader("big.html", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		gotSmall, err := l.CheckReader("small.html", strings.NewReader(small))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotBig, wantBig) {
			t.Fatalf("iteration %d: big document messages differ", i)
		}
		if !reflect.DeepEqual(gotSmall, wantSmall) {
			t.Fatalf("iteration %d: small document messages differ", i)
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

// TestCheckReaderError: a failing reader still reports its error.
func TestCheckReaderError(t *testing.T) {
	l := MustNew(Options{})
	r := &failReader{data: []byte("<html>")}
	if _, err := l.CheckReader("x.html", r); err == nil {
		t.Fatal("CheckReader swallowed the read error")
	}
}

type failReader struct{ data []byte }

func (f *failReader) Read(p []byte) (int, error) {
	if len(f.data) > 0 {
		n := copy(p, f.data)
		f.data = nil
		return n, nil
	}
	return 0, os.ErrClosed
}
