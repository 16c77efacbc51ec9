package gateway

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"strings"

	"weblint/internal/lint"
	"weblint/internal/resultcache"
)

// diff.go lets a client that already submitted a document send edits
// instead of resending it: POST diff=<the ETag of the base> plus
// edits=<a JSON list of lint.Edit>, each {"start", "end", "text"}
// replacing bytes [start, end) of the current text by text. Recently
// submitted documents are retained as bases (a second
// resultcache.Cache, keyed by the same content hash the ETag exposes).
// readDiff applies the edits to the base and hands the edited document
// to the one submission path under the base's name, so from there a
// diff is keyed, cached, coalesced, admitted, budgeted, linted and
// rendered exactly like a paste or an upload, and its response is the
// response to a full submission of the edited text. The edited text is
// retained as a base in turn. A diff saves the upload, not the lint.
// An unknown or evicted base answers 412 Precondition Failed: the
// client resubmits the full document.

// maxDiffEdits bounds one request's edit list; an editor sync that
// somehow batches more than this should resubmit the document.
const maxDiffEdits = 1000

// errUnknownBase reports a diff against a base the gateway does not
// hold: never issued, or evicted since.
var errUnknownBase = errors.New("unknown base document; resubmit the full document")

// base is one retained base document. Bases are immutable.
type base struct {
	name string
	text string
}

// defaultBaseCapacity is how many base documents, each at most
// MaxUpload bytes, the gateway retains for diffing.
const defaultBaseCapacity = 8

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

// readDiff applies a diff request's edits to its retained base and
// writes the edited document into buf, returning it under the base's
// name. The edits are applied as lint.Session applies them.
func (h *Handler) readDiff(form url.Values, buf *bytes.Buffer) (name string, src []byte, err error) {
	key, ok := parseDiffKey(form.Get("diff"))
	if !ok {
		return "", nil, errors.New("diff= is not a weblint ETag")
	}
	var edits []lint.Edit
	if err := json.Unmarshal([]byte(form.Get("edits")), &edits); err != nil {
		return "", nil, fmt.Errorf("edits= is not a JSON edit list: %w", err)
	}
	if len(edits) > maxDiffEdits {
		return "", nil, errors.New("too many edits in one diff; resubmit the document")
	}
	base, ok := h.bases.Get(key)
	if !ok {
		return "", nil, errUnknownBase
	}
	// No intermediate text is longer than the base plus every inserted
	// text, so checking that sum bounds the result and lets buf hold
	// every step without growing.
	size := len(base.text)
	for _, e := range edits {
		size += len(e.Text)
	}
	if int64(size) > h.maxUpload() {
		return "", nil, errTooLarge
	}
	buf.Grow(size)
	doc := lint.ApplyEdits(append(buf.AvailableBuffer(), base.text...), edits)
	buf.Write(doc)
	return base.name, buf.Bytes(), nil
}
