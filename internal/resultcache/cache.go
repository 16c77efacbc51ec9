// Package resultcache is the gateway's content-addressed result
// cache: at fleet scale most traffic is repeat documents — CI re-runs,
// crawler revisits, unchanged pages — and the cheapest lint is the one
// that never runs. The gateway keys entries on (SHA-256 of the
// document bytes, configuration fingerprint, document name) — KeyOf,
// then Key.Named — and each holds a *warn.Recorder:
// the *finding stream* — the emitted messages plus the
// suppressed-emission IDs, exactly what a live check delivers through
// warn.Sink — not rendered bytes, so one cached entry replays through
// any renderer: HTML report, JSON Lines, SARIF, baseline recording,
// fix application and baseline= diffs all ride the same entry.
//
// Cache is one bounded LRU — a mutex, a key index and a recency list —
// generic in what it holds: New costs finding streams in approximate
// bytes, and the gateway keeps the documents that diff= requests edit
// in a second instance, under the same keys, costing one per document.
// The companion Group (flight.go) collapses concurrent identical
// submissions into one computation.
package resultcache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"weblint/internal/warn"
)

// Key identifies one cache entry: a SHA-256 over the configuration
// fingerprint and the exact document bytes, and, through Named, the
// document name. Two documents, names or configurations that could
// produce different findings never share a named Key.
type Key [sha256.Size]byte

// KeyOf derives the cache key for checking doc under the configuration
// identified by configFP (see lint.Linter.ConfigFingerprint). The
// fingerprint is length-delimited by a NUL — it is hex, so it cannot
// contain one — making (fp, doc) unambiguous.
func KeyOf(configFP string, doc []byte) Key {
	h := sha256.New()
	h.Write([]byte(configFP))
	h.Write([]byte{0})
	h.Write(doc)
	var k Key
	h.Sum(k[:0])
	return k
}

// Named returns the key for checking the same document under the
// name name. Every finding carries the document name in Message.File,
// so one document submitted under two names must not share an entry.
// It hashes the fixed-length key and then the name, so (key, name) is
// unambiguous.
func (k Key) Named(name string) Key {
	return sha256.Sum256(append(k[:], name...))
}

// Hex returns the key in lower-case hex — the gateway uses it as the
// strong ETag validator, since the key is a content address: equal
// keys imply byte-identical responses.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// sizeOf approximates the heap bytes a cached stream pins: slice
// headers and struct overhead plus every owned string. Precision does
// not matter — the budget is a bound, not an accounting system — but
// the estimate must scale with the real footprint so a pathological
// million-finding document cannot hide behind a flat per-entry cost.
func sizeOf(rec *warn.Recorder) int {
	const (
		entryOverhead = 160 // entry + Recorder + map slot, roughly
		msgOverhead   = 96  // warn.Message struct
		editOverhead  = 40  // warn.Edit struct
	)
	n := entryOverhead
	for i := range rec.Messages {
		m := &rec.Messages[i]
		n += msgOverhead + len(m.ID) + len(m.File) + len(m.Text)
		if m.Fix != nil {
			n += 48 + len(m.Fix.Label)
			for _, e := range m.Fix.Edits {
				n += editOverhead + len(e.Text)
			}
		}
	}
	for _, id := range rec.SuppressedIDs {
		n += 16 + len(id)
	}
	return n
}

// Cache is a bounded LRU from Key to V: one mutex, one key index and
// one recency list. Each value's cost is fixed when it is Put, and Put
// evicts the least recently used entries until the total cost fits
// the budget. Construct with New or NewLRU; the zero value is not
// useful.
type Cache[V any] struct {
	mu      sync.Mutex
	budget  int
	cost    func(V) int
	used    int
	entries map[Key]*list.Element
	lru     list.List // of *entry[V], front = most recent
}

type entry[V any] struct {
	key  Key
	val  V
	cost int
}

// DefaultMaxBytes is the cache budget New applies when given a
// non-positive size: 64 MiB, a few thousand typical documents' finding
// streams.
const DefaultMaxBytes = 64 << 20

// New returns the gateway's finding-stream cache, bounded to
// approximately maxBytes of cached results as sizeOf estimates them
// (non-positive means DefaultMaxBytes).
func New(maxBytes int) *Cache[*warn.Recorder] {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return NewLRU(maxBytes, sizeOf)
}

// NewLRU returns an empty Cache whose values cost cost(v) each against
// budget.
func NewLRU[V any](budget int, cost func(V) int) *Cache[V] {
	return &Cache[V]{budget: budget, cost: cost, entries: make(map[Key]*list.Element)}
}

// Get returns the value cached under k, refreshing its recency. A
// value is shared with every other reader: never modify it.
func (c *Cache[V]) Get(k Key) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el := c.entries[k]
	if el == nil {
		var zero V
		return zero, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores v under k, evicting least-recently-used entries until the
// total cost fits the budget. The cache takes ownership of v; nobody
// may modify it afterwards. A value costing more than the whole budget
// is not stored at all: caching it would evict everything else for an
// entry that cannot stay resident anyway.
func (c *Cache[V]) Put(k Key, v V) {
	cost := c.cost(v)
	if cost > c.budget {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.entries[k]; el != nil {
		// Same key means same content and config: the value is
		// equivalent. Keep the incumbent, refresh recency.
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&entry[V]{key: k, val: v, cost: cost})
	c.used += cost
	for c.used > c.budget {
		e := c.lru.Remove(c.lru.Back()).(*entry[V])
		delete(c.entries, e.key)
		c.used -= e.cost
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the total cost of the cached entries: approximate
// bytes for the finding-stream cache.
func (c *Cache[V]) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
