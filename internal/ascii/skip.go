package ascii

import (
	"math/bits"
	"strings"
)

// Run-skipping primitives for the tokenizer hot path.
//
// The tokenizer's inner loops spend their time finding the next
// "interesting" byte — the next '<' in a text run, the next quote or
// '>' in a tag, the closing quote of an attribute value. A per-byte
// loop with predicate calls moves one byte per iteration; these
// helpers move a word (or, via the runtime's IndexByte, a SIMD
// register) per iteration instead:
//
//   - Single-byte searches go through strings.IndexByte, which the
//     runtime vectorises.
//   - Three-byte searches (IndexAny3) use SWAR: load 8 bytes as one
//     word and match all lanes at once with the zero-byte trick,
//     falling back to a byte loop only for the tail.
//
// All helpers return the index of the FIRST matching byte, exactly as
// the naive per-byte scan would, so callers can swap them in without
// changing run boundaries (the property tests in skip_test.go pin
// this).

const (
	swarOnes  = 0x0101010101010101
	swarHighs = 0x8080808080808080
)

// load64 reads 8 little-endian bytes of s starting at i as one word.
// The shift-or chain is fused into a single load by the compiler's
// memcombine pass on little-endian architectures; on others it is
// still correct, just byte-at-a-time.
func load64(s string, i int) uint64 {
	_ = s[i+7] // bounds hint
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// matchMask returns a word with 0x80 set in (at least) the lowest lane
// of v equal to c. The zero-byte detection trick can flag spurious
// lanes ABOVE a true match (borrow propagation), never below one, so
// the lowest set lane is always a true match — which is all a
// first-match search needs, including when masks for several target
// bytes are ORed together.
func matchMask(v uint64, c byte) uint64 {
	x := v ^ (swarOnes * uint64(c))
	return (x - swarOnes) &^ x & swarHighs
}

// IndexAny3 returns the index of the first byte of s equal to a, b or
// c, or -1. It matches the naive per-byte scan exactly.
func IndexAny3(s string, a, b, c byte) int {
	i := 0
	for ; i+8 <= len(s); i += 8 {
		v := load64(s, i)
		if m := matchMask(v, a) | matchMask(v, b) | matchMask(v, c); m != 0 {
			return i + bits.TrailingZeros64(m)>>3
		}
	}
	for ; i < len(s); i++ {
		if x := s[i]; x == a || x == b || x == c {
			return i
		}
	}
	return -1
}

// IndexByteFrom returns the index of the first occurrence of c in s at
// or after from, in s's own coordinates, or -1. It is the IndexByte
// idiom every skip loop repeats, packaged so call sites stay readable.
func IndexByteFrom(s string, c byte, from int) int {
	if from >= len(s) {
		return -1
	}
	if j := strings.IndexByte(s[from:], c); j >= 0 {
		return from + j
	}
	return -1
}
