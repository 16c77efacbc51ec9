package resultcache

import (
	"fmt"
	"sync"
	"testing"

	"weblint/internal/warn"
)

func msg(id, text string) warn.Message {
	return warn.Message{ID: id, Category: warn.Warning, File: "t.html", Line: 1, Col: 1, Text: text}
}

// stream builds a recorded finding stream.
func stream(msgs []warn.Message, suppressed []string) *warn.Recorder {
	return &warn.Recorder{Collector: warn.Collector{Messages: msgs}, SuppressedIDs: suppressed}
}

func TestKeyOfSeparatesConfigAndDocument(t *testing.T) {
	doc := []byte("<html></html>")
	k1 := KeyOf("fp-a", doc)
	k2 := KeyOf("fp-b", doc)
	if k1 == k2 {
		t.Fatal("different config fingerprints produced the same key")
	}
	if KeyOf("fp-a", doc) != k1 {
		t.Fatal("KeyOf is not deterministic")
	}
	if KeyOf("fp-a", []byte("<html> </html>")) == k1 {
		t.Fatal("different documents produced the same key")
	}
	// The NUL delimiter means no (fp, doc) boundary ambiguity: moving a
	// byte across the boundary changes the key.
	if KeyOf("fp-ab", []byte("c")) == KeyOf("fp-a", []byte("bc")) {
		t.Fatal("fingerprint/document boundary is ambiguous")
	}
	if len(k1.Hex()) != 64 {
		t.Fatalf("Hex() length = %d, want 64", len(k1.Hex()))
	}
	// Named keys the document name too: findings carry it.
	a, b := k1.Named("a.html"), k1.Named("b.html")
	if a == b || a == k1 || a == k2.Named("a.html") {
		t.Fatal("Named does not separate names, or drops the key")
	}
	if k1.Named("a.html") != a {
		t.Fatal("Named is not deterministic")
	}
}

func TestReplayMatchesRecorderContract(t *testing.T) {
	c := New(1 << 20)
	k := KeyOf("fp", []byte("doc"))
	c.Put(k, stream(
		[]warn.Message{msg("heading-order", "a"), msg("img-alt", "b")},
		[]string{"upper-case", "upper-case"},
	))
	res, _ := c.Get(k)
	var rec warn.Recorder
	if !res.Replay(&rec) {
		t.Fatal("Replay reported a refused stream")
	}
	if got := len(rec.Messages); got != 2 {
		t.Fatalf("replayed %d messages, want 2", got)
	}
	if rec.Messages[0].Text != "a" || rec.Messages[1].Text != "b" {
		t.Fatal("replay did not preserve emission order")
	}
	if got := len(rec.SuppressedIDs); got != 2 {
		t.Fatalf("replayed %d suppressions, want 2", got)
	}
	// A sink that refuses mid-stream stops the replay.
	n := 0
	stop := warn.SinkFunc(func(warn.Message) bool { n++; return false })
	if res.Replay(stop) {
		t.Fatal("Replay ignored a refusing sink")
	}
	if n != 1 {
		t.Fatalf("refusing sink saw %d messages, want 1", n)
	}
}

func TestGetPutAndRecency(t *testing.T) {
	c := New(1 << 20)
	k := KeyOf("fp", []byte("doc"))
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache reported a hit")
	}
	res := stream([]warn.Message{msg("x", "y")}, nil)
	c.Put(k, res)
	got, ok := c.Get(k)
	if !ok || got != res {
		t.Fatal("Put/Get round trip failed")
	}
	if c.Len() != 1 || c.Bytes() != sizeOf(res) {
		t.Fatalf("Len/Bytes = %d/%d, want 1/%d", c.Len(), c.Bytes(), sizeOf(res))
	}
	// Re-putting the same key keeps the incumbent.
	c.Put(k, stream(nil, nil))
	if got, _ := c.Get(k); got != res {
		t.Fatal("duplicate Put replaced the incumbent entry")
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate Put changed Len to %d", c.Len())
	}
}

// distinctKeys derives n distinct keys.
func distinctKeys(n int) []Key {
	ks := make([]Key, n)
	for i := range ks {
		ks[i] = KeyOf("fp", []byte(fmt.Sprintf("doc-%d", i)))
	}
	return ks
}

func TestLRUEvictionRespectsRecency(t *testing.T) {
	keys := distinctKeys(3)
	res := stream([]warn.Message{msg("rule", "some finding text")}, nil)
	c := New(2 * sizeOf(res)) // room for two entries

	c.Put(keys[0], res)
	c.Put(keys[1], res)
	// Touch keys[0] so keys[1] is now least recent.
	c.Get(keys[0])
	c.Put(keys[2], res)

	if _, ok := c.Get(keys[1]); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if _, ok := c.Get(keys[0]); !ok {
		t.Fatal("recently-touched entry was evicted")
	}
	if _, ok := c.Get(keys[2]); !ok {
		t.Fatal("newest entry was evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", c.Len())
	}
}

func TestOversizeResultIsNotStored(t *testing.T) {
	c := New(1024)
	big := make([]warn.Message, 0, 64)
	for i := 0; i < 64; i++ {
		big = append(big, msg("rule", "a long finding message that pads the entry well past the budget"))
	}
	k := KeyOf("fp", []byte("huge"))
	c.Put(k, stream(big, nil))
	if _, ok := c.Get(k); ok {
		t.Fatal("oversize result was cached")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Fatalf("oversize Put leaked accounting: Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
}

func TestBytesAccountingAfterEviction(t *testing.T) {
	keys := distinctKeys(8)
	res := stream([]warn.Message{msg("rule", "finding")}, nil)
	c := New(3 * sizeOf(res))
	for _, k := range keys {
		c.Put(k, res)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want the 3 the budget allows", c.Len())
	}
	if want := 3 * sizeOf(res); c.Bytes() != want {
		t.Fatalf("Bytes = %d after evictions, want %d", c.Bytes(), want)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := New(1 << 16) // small: forces constant eviction under load
	res := stream([]warn.Message{msg("rule", "finding")}, []string{"supp"})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := KeyOf("fp", []byte(fmt.Sprintf("doc-%d", (seed*31+i)%97)))
				if r, ok := c.Get(k); ok {
					var rec warn.Recorder
					r.Replay(&rec)
				} else {
					c.Put(k, res)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Bytes() > 1<<16 {
		t.Fatalf("cache exceeded its budget: %d bytes", c.Bytes())
	}
	if c.lru.Len() != c.Len() {
		t.Fatalf("%d entries on the recency list, %d in the index", c.lru.Len(), c.Len())
	}
}
