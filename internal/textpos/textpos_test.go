package textpos

import (
	"math/rand"
	"strings"
	"testing"
	"unicode/utf16"
	"unicode/utf8"
)

func TestLineIndexBasics(t *testing.T) {
	ix := New("one\ntwo\nthree")
	if got := ix.LineCount(); got != 3 {
		t.Fatalf("LineCount = %d, want 3", got)
	}
	for i, want := range []string{"one", "two", "three"} {
		if got := ix.LineText(i); got != want {
			t.Errorf("LineText(%d) = %q, want %q", i, got, want)
		}
	}
	if got := ix.OffsetLine(4); got != 1 {
		t.Errorf("OffsetLine(4) = %d, want 1", got)
	}
	if got := ix.LineText(-1); got != "" {
		t.Errorf("LineText(-1) = %q", got)
	}
	if got := ix.LineText(99); got != "" {
		t.Errorf("LineText(99) = %q", got)
	}
}

func TestLineSeparators(t *testing.T) {
	// \n, \r\n and lone \r all end lines (the LSP convention).
	ix := New("a\r\nb\rc\nd")
	if got := ix.LineCount(); got != 4 {
		t.Fatalf("LineCount = %d, want 4", got)
	}
	for i, want := range []string{"a", "b", "c", "d"} {
		if got := ix.LineText(i); got != want {
			t.Errorf("LineText(%d) = %q, want %q", i, got, want)
		}
	}
	// The byte after \r\n is line 1's start.
	if got := ix.LineStart(1); got != 3 {
		t.Errorf("LineStart(1) = %d, want 3", got)
	}
	// An offset pointing at the \n of \r\n still belongs to line 0.
	if line, char := ix.OffsetToUTF16(2); line != 0 || char != 1 {
		t.Errorf("OffsetToUTF16(2) = (%d,%d), want (0,1)", line, char)
	}
}

func TestTrailingSeparatorOpensEmptyLine(t *testing.T) {
	ix := New("a\n")
	if got := ix.LineCount(); got != 2 {
		t.Fatalf("LineCount = %d, want 2", got)
	}
	if got := ix.LineText(1); got != "" {
		t.Errorf("LineText(1) = %q, want empty", got)
	}
	if got := ix.UTF16ToOffset(1, 0); got != 2 {
		t.Errorf("UTF16ToOffset(1,0) = %d, want 2", got)
	}
}

func TestEmptyDocument(t *testing.T) {
	ix := New("")
	if got := ix.LineCount(); got != 1 {
		t.Fatalf("LineCount = %d, want 1", got)
	}
	if line, char := ix.OffsetToUTF16(0); line != 0 || char != 0 {
		t.Errorf("OffsetToUTF16(0) = (%d,%d)", line, char)
	}
	if got := ix.UTF16ToOffset(0, 5); got != 0 {
		t.Errorf("UTF16ToOffset(0,5) = %d", got)
	}
}

func TestUTF16AstralPlane(t *testing.T) {
	// 😀 is U+1F600: 4 UTF-8 bytes, 2 UTF-16 units.
	src := "a😀b"
	ix := New(src)
	if line, char := ix.OffsetToUTF16(1); line != 0 || char != 1 {
		t.Errorf("offset of 😀 = (%d,%d), want (0,1)", line, char)
	}
	if line, char := ix.OffsetToUTF16(5); line != 0 || char != 3 {
		t.Errorf("offset of b = (%d,%d), want (0,3)", line, char)
	}
	if got := ix.UTF16ToOffset(0, 3); got != 5 {
		t.Errorf("UTF16ToOffset(0,3) = %d, want 5", got)
	}
	// A column inside the surrogate pair maps to the rune's start.
	if got := ix.UTF16ToOffset(0, 2); got != 1 {
		t.Errorf("UTF16ToOffset(0,2) = %d, want 1 (rune start)", got)
	}
	// An offset inside the rune's bytes reports the rune's start.
	if line, char := ix.OffsetToUTF16(3); line != 0 || char != 1 {
		t.Errorf("OffsetToUTF16(3) = (%d,%d), want (0,1)", line, char)
	}
}

func TestUTF16BMPMultibyte(t *testing.T) {
	// é is 2 UTF-8 bytes, 1 UTF-16 unit; 日 is 3 bytes, 1 unit.
	src := "é日x"
	ix := New(src)
	if line, char := ix.OffsetToUTF16(2); line != 0 || char != 1 {
		t.Errorf("offset of 日 = (%d,%d), want (0,1)", line, char)
	}
	if line, char := ix.OffsetToUTF16(5); line != 0 || char != 2 {
		t.Errorf("offset of x = (%d,%d), want (0,2)", line, char)
	}
	if got := ix.UTF16ToOffset(0, 2); got != 5 {
		t.Errorf("UTF16ToOffset(0,2) = %d, want 5", got)
	}
}

func TestInvalidUTF8(t *testing.T) {
	// Two raw 0xFF bytes: one unit each.
	src := "a\xff\xffb"
	ix := New(src)
	if line, char := ix.OffsetToUTF16(3); line != 0 || char != 3 {
		t.Errorf("offset of b = (%d,%d), want (0,3)", line, char)
	}
	if got := ix.UTF16ToOffset(0, 3); got != 3 {
		t.Errorf("UTF16ToOffset(0,3) = %d, want 3", got)
	}
}

func TestEdgesAtEOF(t *testing.T) {
	src := "ab\ncd"
	ix := New(src)
	// Offset exactly at EOF (an edit appending at the end).
	if line, char := ix.OffsetToUTF16(len(src)); line != 1 || char != 2 {
		t.Errorf("OffsetToUTF16(EOF) = (%d,%d), want (1,2)", line, char)
	}
	// Past-EOF clamps.
	if line, char := ix.OffsetToUTF16(len(src) + 10); line != 1 || char != 2 {
		t.Errorf("OffsetToUTF16(EOF+10) = (%d,%d), want (1,2)", line, char)
	}
	if got := ix.UTF16ToOffset(1, 99); got != len(src) {
		t.Errorf("UTF16ToOffset(1,99) = %d, want %d", got, len(src))
	}
	if got := ix.UTF16ToOffset(99, 0); got != len(src) {
		t.Errorf("UTF16ToOffset(99,0) = %d, want %d", got, len(src))
	}
	if got := ix.UTF16ToOffset(-1, 0); got != 0 {
		t.Errorf("UTF16ToOffset(-1,0) = %d, want 0", got)
	}
}

// TestRoundTrip: for every rune boundary in a torture document, offset
// -> (line, char) -> offset is the identity, and the UTF-16 column
// agrees with the encoding the utf16 package produces.
func TestRoundTrip(t *testing.T) {
	src := "plain\r\nmixé😀\xff tail\rlast😀line\nok"
	ix := New(src)
	for off := 0; off <= len(src); {
		line, char := ix.OffsetToUTF16(off)
		if back := ix.UTF16ToOffset(line, char); back != off {
			t.Errorf("offset %d -> (%d,%d) -> %d", off, line, char, back)
		}
		// Independent check of the column against utf16.Encode over
		// the decoded line prefix (replacement chars for bad bytes).
		prefix := src[ix.LineStart(line):off]
		units := 0
		for _, r := range prefix {
			units += len(utf16.Encode([]rune{r}))
		}
		if !strings.ContainsRune(prefix, '�') && units != char {
			t.Errorf("offset %d: char = %d, utf16 says %d", off, char, units)
		}
		// Advance one rune (or one invalid byte); a "\r\n" pair is
		// skipped whole — an offset strictly inside a separator has no
		// identity round-trip (it clamps to the line's content end).
		if off == len(src) {
			break
		}
		if src[off] == '\r' && off+1 < len(src) && src[off+1] == '\n' {
			off += 2
			continue
		}
		_, size := decodeAt(src, off)
		off += size
	}
}

func decodeAt(s string, i int) (rune, int) {
	r := rune(s[i])
	if r < 0x80 {
		return r, 1
	}
	for size := 2; size <= 4 && i+size <= len(s); size++ {
		if rr := []rune(s[i : i+size]); len(rr) == 1 && rr[0] != '�' {
			return rr[0], size
		}
	}
	return '�', 1
}

// TestUTF16AgainstPerRune checks both conversions at every offset and
// every column of seeded documents that mix ASCII runs of 1–20 bytes
// (which the conversions step over byte by byte) with 2-, 3- and
// 4-byte runes, invalid bytes, truncated sequences, "\r\n" and lone
// "\r", against a per-rune reference that decodes every rune.
func TestUTF16AgainstPerRune(t *testing.T) {
	for _, src := range mixedDocs() {
		ix := New(src)
		for off := -1; off <= len(src)+1; off++ {
			line, char := ix.OffsetToUTF16(off)
			if wl, wc := refOffsetToUTF16(ix, off); line != wl || char != wc {
				t.Fatalf("%q: OffsetToUTF16(%d) = (%d,%d), per rune (%d,%d)", src, off, line, char, wl, wc)
			}
		}
		for line := -1; line <= ix.LineCount(); line++ {
			for char := 0; char <= len(ix.LineText(line))*2+1; char++ {
				if got, want := ix.UTF16ToOffset(line, char), refUTF16ToOffset(ix, line, char); got != want {
					t.Fatalf("%q: UTF16ToOffset(%d,%d) = %d, per rune %d", src, line, char, got, want)
				}
			}
		}
	}
}

// mixedDocs returns 200 seeded documents that mix ASCII runs of 1–20
// bytes with 2-, 3- and 4-byte runes, invalid bytes, truncated
// sequences, "\r\n" and lone "\r".
func mixedDocs() []string {
	pieces := []string{"é", "日", "😀", "\xff", "\xe2\x80", "\xf0\x9f", "\r\n", "\r", "\n"}
	rnd := rand.New(rand.NewSource(1))
	docs := make([]string, 200)
	for i := range docs {
		var sb strings.Builder
		for n := rnd.Intn(12); n > 0; n-- {
			sb.WriteString("<p a=x>ascii text"[:1+rnd.Intn(17)] + strings.Repeat("z", rnd.Intn(4)))
			sb.WriteString(pieces[rnd.Intn(len(pieces))])
		}
		docs[i] = sb.String()
	}
	return docs
}

// TestToLineEndUTF16AgainstTwoCalls: on the same documents, at every
// offset, ToLineEndUTF16 equals converting the offset and then its
// line's end separately, offsets inside a rune, inside "\r\n" and
// past either end included.
func TestToLineEndUTF16AgainstTwoCalls(t *testing.T) {
	for _, src := range mixedDocs() {
		ix := New(src)
		for off := -1; off <= len(src)+1; off++ {
			line, char, end := ix.ToLineEndUTF16(off)
			wl, wc := ix.OffsetToUTF16(off)
			el, ec := ix.OffsetToUTF16(ix.LineStart(wl) + len(ix.LineText(wl)))
			if line != wl || char != wc || el != wl || end != ec {
				t.Fatalf("%q: ToLineEndUTF16(%d) = (%d,%d,%d), two calls (%d,%d)-(%d,%d)", src, off, line, char, end, wl, wc, el, ec)
			}
		}
	}
}

// refOffsetToUTF16 is OffsetToUTF16 decoding every rune, ASCII too.
func refOffsetToUTF16(ix *Index, off int) (line, char int) {
	off = min(max(off, 0), len(ix.src))
	line = ix.OffsetLine(off)
	start := ix.LineStart(line)
	off = min(off, start+len(ix.LineText(line)))
	for i := start; i < off; {
		r, size := utf8.DecodeRuneInString(ix.src[i:])
		if r == utf8.RuneError && size <= 1 {
			char, i = char+1, i+1
			continue
		}
		if i+size > off {
			break
		}
		char, i = char+utf16.RuneLen(r), i+size
	}
	return line, char
}

// refUTF16ToOffset is UTF16ToOffset decoding every rune, ASCII too.
func refUTF16ToOffset(ix *Index, line, char int) int {
	if line < 0 {
		return 0
	}
	if line >= ix.LineCount() {
		return len(ix.src)
	}
	i := ix.LineStart(line)
	end := i + len(ix.LineText(line))
	for units := 0; i < end && units < char; {
		r, size := utf8.DecodeRuneInString(ix.src[i:end])
		u := utf16.RuneLen(r) // 1 for an invalid byte, decoded as U+FFFD
		if units+u > char {
			break
		}
		units, i = units+u, i+size
	}
	return i
}
