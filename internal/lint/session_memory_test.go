package lint

import (
	"runtime"
	"strings"
	"testing"
)

// deepPage returns a page whose size/3 <B> tags nest without ever
// closing, so the open stack at any offset is as deep as the page is
// long so far: the shape that made every checkpoint snapshot cost
// O(depth).
func deepPage(size int) string {
	return "<HTML><BODY>" + strings.Repeat("<B>", size/3) + "x</BODY></HTML>"
}

// heldBy returns the live heap mk's Session holds. Each reading comes
// after two collections: pooled objects survive the first one, and
// earlier tests' pools must not drain into the difference.
func heldBy(mk func() *Session) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := mk()
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	return float64(after.HeapAlloc) - float64(before.HeapAlloc)
}

// TestSessionMemoryLinearInDepth is the scaling guard for checkpoint
// memory: the heap a Session's checkpoints hold — what NewSession
// holds beyond a session with the pre-document checkpoint alone — must
// grow linearly with the document, however deep its nesting. Per
// document byte it may not grow more than 1.3x (the lint scaling
// curve's limit) across a 4x size step of the deep page. With fixed
// checkpoint spacing it grows ~2.5x, quadratic in the page.
func TestSessionMemoryLinearInDepth(t *testing.T) {
	l := MustNew(Options{})
	NewSession(l, "warm.html", deepPage(1<<10))
	perByte := func(size int) float64 {
		page := deepPage(size)
		all := heldBy(func() *Session { return NewSession(l, "deep.html", page) })
		one := heldBy(func() *Session { return newSession(l, "deep.html", page, 1<<30) })
		return (all - one) / float64(len(page))
	}
	small, big := perByte(16<<10), perByte(64<<10)
	t.Logf("checkpoint heap per document byte: %.1f at 16 KiB, %.1f at 64 KiB", small, big)
	if big > 1.3*small {
		t.Fatalf("checkpoint heap per document byte grew %.1fx from 16 KiB to 64 KiB of nesting (%.1f -> %.1f B/B)",
			big/small, small, big)
	}
}
