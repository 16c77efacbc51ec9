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
// The cache is a bounded, sharded LRU: shards are picked by key byte,
// each shard is an independent mutex + hash map + intrusive recency
// list, and the byte budget is enforced per shard so eviction never
// takes a global lock. The companion Group (flight.go) collapses
// concurrent identical submissions into one computation.
package resultcache

import (
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

// shardCount is the number of independent LRU shards. 16 keeps lock
// contention negligible at gateway concurrencies (tens of slots) while
// costing only a few hundred bytes of fixed overhead.
const shardCount = 16

// Cache is the bounded, sharded LRU. Construct with New; the zero
// value is not useful.
type Cache struct {
	shards   [shardCount]shard
	perShard int
}

// shard is one independent LRU: a mutex, the key index, and an
// intrusive doubly-linked recency list (head = most recent).
type shard struct {
	mu         sync.Mutex
	entries    map[Key]*entry
	head, tail *entry
	bytes      int
}

type entry struct {
	key        Key
	rec        *warn.Recorder
	size       int // sizeOf(rec), fixed at Put
	prev, next *entry
}

// DefaultMaxBytes is the cache budget New applies when given a
// non-positive size: 64 MiB, a few thousand typical documents' finding
// streams.
const DefaultMaxBytes = 64 << 20

// New returns a Cache bounded to approximately maxBytes of cached
// results (non-positive means DefaultMaxBytes). The bound is enforced
// per shard, so a single shard can hold at most maxBytes/16; with
// SHA-256 keys the shard spread is uniform and the distinction is
// invisible in practice.
func New(maxBytes int) *Cache {
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	perShard := maxBytes / shardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].entries = make(map[Key]*entry)
	}
	return c
}

func (c *Cache) shard(k Key) *shard { return &c.shards[k[0]&(shardCount-1)] }

// Get returns the cached finding stream for k, refreshing its
// recency. The Recorder is shared with every other reader: replay it,
// never modify it.
func (c *Cache) Get(k Key) (*warn.Recorder, bool) {
	s := c.shard(k)
	s.mu.Lock()
	e := s.entries[k]
	if e == nil {
		s.mu.Unlock()
		return nil, false
	}
	s.moveToFront(e)
	rec := e.rec
	s.mu.Unlock()
	return rec, true
}

// Put stores a completed check's finding stream under k, evicting
// least-recently-used entries until the shard fits its budget. The
// cache takes ownership of rec; nobody may modify it afterwards. A
// stream larger than the whole shard budget is not stored at all:
// caching it would evict everything else for an entry that cannot
// stay resident anyway.
func (c *Cache) Put(k Key, rec *warn.Recorder) {
	size := sizeOf(rec)
	if size > c.perShard {
		return
	}
	s := c.shard(k)
	s.mu.Lock()
	if e := s.entries[k]; e != nil {
		// Same key means same content and config: the result is
		// equivalent. Keep the incumbent, refresh recency.
		s.moveToFront(e)
		s.mu.Unlock()
		return
	}
	e := &entry{key: k, rec: rec, size: size}
	s.entries[k] = e
	s.pushFront(e)
	s.bytes += size
	for s.bytes > c.perShard && s.tail != nil && s.tail != e {
		s.evict(s.tail)
	}
	s.mu.Unlock()
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Bytes returns the approximate bytes held across all shards.
func (c *Cache) Bytes() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.bytes
		s.mu.Unlock()
	}
	return n
}

// locked list plumbing ------------------------------------------------

func (s *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

func (s *shard) evict(e *entry) {
	s.unlink(e)
	delete(s.entries, e.key)
	s.bytes -= e.size
}
