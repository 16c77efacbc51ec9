package gateway

import (
	"container/list"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"strings"
	"sync"

	"weblint/internal/lint"
	"weblint/internal/resultcache"
)

// diff.go is the gateway's diff-granular serving path: a client that
// already submitted a document can POST diff=<etag of the base> plus
// edits=<JSON span edits> and get the re-lint of the edited document
// without resending it — and, server-side, without re-linting it from
// scratch. Recently submitted documents are retained (bounded LRU,
// content-addressed by the same key the ETag exposes); the first diff
// against a base builds a lint.Session over it, and every further diff
// re-tokenizes only the damaged window, splicing cached findings
// around it. The session guarantees output byte-identical to a
// from-scratch lint, so a diff response is indistinguishable from a
// full submission of the edited text — it even carries the edited
// text's own content-hash ETag, which in turn serves as the base for
// the next diff. An unknown or superseded base answers 412
// Precondition Failed: the client resubmits the full document.
//
// Diff results are never stored in the result cache: their keys are
// derived, not proven by a document upload, and the session already
// holds the authoritative state.

// diffEdit is the wire form of one span edit, mirroring lint.Edit:
// bytes [start, end) of the current base text are replaced by text.
type diffEdit struct {
	Start int    `json:"start"`
	End   int    `json:"end"`
	Text  string `json:"text"`
}

// maxDiffEdits bounds one request's edit list; an editor sync that
// somehow batches more than this should resubmit the document.
const maxDiffEdits = 1000

// baseEntry is one retained base document. mu serialises diffs against
// it: lint.Session is not safe for concurrent use, and a diff advances
// the entry to the edited document (re-keyed under the new content
// hash), so a concurrent diff against the now-stale key misses and
// resubmits.
type baseEntry struct {
	mu   sync.Mutex
	key  resultcache.Key
	name string
	text string
	sess *lint.Session // built lazily on the first diff
}

// baseStore is a small LRU of base documents keyed by content hash.
// It is intentionally tiny: each entry may pin a session (document
// text, event stream, checker snapshots), and only actively edited
// documents earn that.
type baseStore struct {
	mu  sync.Mutex
	cap int
	m   map[resultcache.Key]*list.Element
	lru list.List // of *baseEntry, front = most recent
}

func newBaseStore(capacity int) *baseStore {
	return &baseStore{cap: capacity, m: map[resultcache.Key]*list.Element{}}
}

// put retains a document under its key (no-op if already present).
func (bs *baseStore) put(key resultcache.Key, name, text string) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	if el, ok := bs.m[key]; ok {
		bs.lru.MoveToFront(el)
		return
	}
	bs.m[key] = bs.lru.PushFront(&baseEntry{key: key, name: name, text: strings.Clone(text)})
	for bs.lru.Len() > bs.cap {
		el := bs.lru.Back()
		delete(bs.m, el.Value.(*baseEntry).key)
		bs.lru.Remove(el)
	}
}

// get looks a base up and marks it recently used.
func (bs *baseStore) get(key resultcache.Key) *baseEntry {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	el, ok := bs.m[key]
	if !ok {
		return nil
	}
	bs.lru.MoveToFront(el)
	return el.Value.(*baseEntry)
}

// rekey moves an entry from old to new after a diff advanced it. The
// entry stays at its LRU position; if the new key is already present
// (another path produced the same document) the old entry is dropped.
func (bs *baseStore) rekey(e *baseEntry, newKey resultcache.Key) {
	bs.mu.Lock()
	defer bs.mu.Unlock()
	el, ok := bs.m[e.key]
	if !ok || el.Value.(*baseEntry) != e {
		return // evicted while the diff ran
	}
	delete(bs.m, e.key)
	if _, exists := bs.m[newKey]; exists {
		bs.lru.Remove(el)
		return
	}
	e.key = newKey
	bs.m[newKey] = el
}

// defaultBaseCapacity is how many base documents the gateway retains
// for diffing.
const defaultBaseCapacity = 8

func (h *Handler) bases() *baseStore {
	h.baseOnce.Do(func() { h.baseStore = newBaseStore(defaultBaseCapacity) })
	return h.baseStore
}

// retainBase remembers a fully submitted document so later requests
// can diff against its ETag.
func (h *Handler) retainBase(key resultcache.Key, name string, src []byte) {
	h.bases().put(key, name, string(src))
}

// parseDiffKey decodes the diff= form value — the ETag a previous
// response carried, quotes and weak prefix tolerated — into a cache
// key.
func parseDiffKey(v string) (resultcache.Key, bool) {
	v = strings.TrimSpace(v)
	v = strings.TrimPrefix(v, "W/")
	v = strings.Trim(v, `"`)
	var k resultcache.Key
	raw, err := hex.DecodeString(v)
	if err != nil || len(raw) != len(k) {
		return k, false
	}
	copy(k[:], raw)
	return k, true
}

// submitDiff serves a diff request: edits against a retained base.
// Responses carry the edited document's content-hash ETag and
// X-Weblint-Cache: diff.
func (h *Handler) submitDiff(w http.ResponseWriter, r *http.Request) {
	key, ok := parseDiffKey(r.FormValue("diff"))
	if !ok {
		http.Error(w, "diff= is not a weblint ETag", http.StatusBadRequest)
		return
	}
	var edits []diffEdit
	if err := json.Unmarshal([]byte(r.FormValue("edits")), &edits); err != nil {
		http.Error(w, "edits= is not a JSON edit list: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(edits) > maxDiffEdits {
		http.Error(w, "too many edits in one diff; resubmit the document", http.StatusBadRequest)
		return
	}
	format := r.FormValue("format")
	if format == "" {
		format = "html"
	}
	if !validFormat(format) {
		http.Error(w, "unknown format "+format+" (expected html, json, sarif, baseline or fixed)", http.StatusBadRequest)
		return
	}

	e := h.bases().get(key)
	if e == nil {
		http.Error(w, "unknown base document; resubmit the full document", http.StatusPreconditionFailed)
		return
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.key != key {
		// A concurrent diff advanced this base past the key the client
		// holds; its edits no longer mean what it thinks.
		http.Error(w, "base document superseded; resubmit the full document", http.StatusPreconditionFailed)
		return
	}

	grow := 0
	for _, ed := range edits {
		grow += len(ed.Text)
	}
	if int64(len(e.text)+grow) > h.maxUpload() {
		h.renderError(w, http.StatusRequestEntityTooLarge,
			"edited document would exceed the upload limit")
		return
	}

	if e.sess == nil {
		// First diff against this base pays one full lint to build the
		// session; every further diff re-lints only the edit window.
		e.sess = lint.NewSession(h.Linter, e.name, e.text)
	}
	le := make([]lint.Edit, len(edits))
	for i, ed := range edits {
		le[i] = lint.Edit{Start: ed.Start, End: ed.End, Text: ed.Text}
	}
	e.sess.Apply(le)
	e.text = e.sess.Text()

	newKey := resultcache.KeyOf(h.Linter.ConfigFingerprint(), []byte(e.text)).Named(e.name)
	h.bases().rekey(e, newKey)

	// Serve the emission-order recording, not the sorted view: a diff
	// response must be byte-identical to what submitting the edited
	// document would produce, and that replays a recorded stream too.
	h.serveResult(w, r, e.name, []byte(e.text), format, e.sess.Recording(), `"`+newKey.Hex()+`"`, "diff")
}
