package ascii

import (
	"math/rand"
	"strings"
	"testing"
)

func naiveIndexAny(s string, targets ...byte) int {
	for i := 0; i < len(s); i++ {
		for _, c := range targets {
			if s[i] == c {
				return i
			}
		}
	}
	return -1
}

func TestIndexAnyFixed(t *testing.T) {
	cases := []struct {
		s       string
		a, b, c byte
	}{
		{"", '"', '\'', '>'},
		{"x", '"', '\'', '>'},
		{">", '"', '\'', '>'},
		{"no match here at all", 'q', 'z', 'Q'},
		{"........>", '"', '\'', '>'},  // match in the 8-byte word
		{".........>", '"', '\'', '>'}, // match in the tail
		{"\">'", '"', '\'', '>'},       // all three present: first wins
		{"'\">", '"', '\'', '>'},       // order of targets irrelevant
		{strings.Repeat(".", 8) + "'", 'a', 'b', '\''},
		{strings.Repeat(".", 7) + "'", 'a', 'b', '\''},
		{strings.Repeat("\x80\xff", 16) + ">", '"', '\'', '>'}, // high bytes set
		{"\x00\x00>", '"', '\'', '>'},
		{"a\x01b", '\x01', '\x02', '\x03'},
	}
	for _, tc := range cases {
		if got, want := IndexAny3(tc.s, tc.a, tc.b, tc.c), naiveIndexAny(tc.s, tc.a, tc.b, tc.c); got != want {
			t.Errorf("IndexAny3(%q, %q, %q, %q) = %d, want %d", tc.s, tc.a, tc.b, tc.c, got, want)
		}
	}
}

// TestIndexAnyProperty: on random strings over small alphabets (so
// matches land at every position relative to word boundaries, and
// SWAR false-positive lanes get exercised by near-miss byte values),
// the word-at-a-time helpers agree with the naive scan exactly.
func TestIndexAnyProperty(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	alphabets := [][]byte{
		{'a', 'b', 'c', '>', '"', '\''},
		{0x00, 0x01, 0x7f, 0x80, 0xfe, 0xff, '>'},
		{'>', '?', '=', '<'}, // adjacent byte values: near-miss lanes
	}
	for _, alpha := range alphabets {
		for trial := 0; trial < 2000; trial++ {
			n := rnd.Intn(40)
			buf := make([]byte, n)
			for i := range buf {
				buf[i] = alpha[rnd.Intn(len(alpha))]
			}
			s := string(buf)
			a := alpha[rnd.Intn(len(alpha))]
			b := alpha[rnd.Intn(len(alpha))]
			c := alpha[rnd.Intn(len(alpha))]
			if got, want := IndexAny3(s, a, b, c), naiveIndexAny(s, a, b, c); got != want {
				t.Fatalf("IndexAny3(%q, %q, %q, %q) = %d, want %d", s, a, b, c, got, want)
			}
		}
	}
}

// TestIndexAnyExhaustiveShort: every string of length ≤ 3 over a tiny
// alphabet, all target choices — covers the pure-tail path completely.
func TestIndexAnyExhaustiveShort(t *testing.T) {
	alpha := []byte{'x', '>', 0xff}
	var rec func(prefix []byte, depth int)
	rec = func(prefix []byte, depth int) {
		s := string(prefix)
		for _, a := range alpha {
			for _, b := range alpha {
				for _, c := range alpha {
					if got, want := IndexAny3(s, a, b, c), naiveIndexAny(s, a, b, c); got != want {
						t.Fatalf("IndexAny3(%q, %q, %q, %q) = %d, want %d", s, a, b, c, got, want)
					}
				}
			}
		}
		if depth == 0 {
			return
		}
		for _, c := range alpha {
			rec(append(prefix, c), depth-1)
		}
	}
	rec(nil, 3)
}

func TestIndexByteFrom(t *testing.T) {
	s := "abcabc"
	cases := []struct {
		c    byte
		from int
		want int
	}{
		{'a', 0, 0},
		{'a', 1, 3},
		{'a', 4, -1},
		{'c', 2, 2},
		{'z', 0, -1},
		{'a', 6, -1},
		{'a', 99, -1},
	}
	for _, tc := range cases {
		if got := IndexByteFrom(s, tc.c, tc.from); got != tc.want {
			t.Errorf("IndexByteFrom(%q, %q, %d) = %d, want %d", s, tc.c, tc.from, got, tc.want)
		}
	}
}

func TestMatchMaskFirstLaneExact(t *testing.T) {
	// The SWAR zero-byte trick may set spurious high bits in lanes
	// above the first true match (borrow propagation through 0xff
	// lanes), never below it. Pin that the first set lane is always a
	// true match, including the documented worst case.
	s := "\xff\xff\xff\xff\xff\xff\xff\x00"
	v := load64(s, 0)
	m := matchMask(v, 0x00)
	if lane := trailingLane(m); lane != 7 || s[lane] != 0x00 {
		t.Fatalf("first lane %d is not the true match", lane)
	}
	// 0x01 0x00: searching for 0x00 must report lane 1, not lane 0,
	// even though subtracting ones from lane 0 borrows.
	s = "\x01\x00______"
	m = matchMask(load64(s, 0), 0x00)
	if lane := trailingLane(m); lane != 1 {
		t.Fatalf("first lane %d, want 1", lane)
	}
}

func trailingLane(m uint64) int {
	n := 0
	for m&0x80 == 0 {
		m >>= 8
		n++
		if n > 8 {
			return -1
		}
	}
	return n
}
