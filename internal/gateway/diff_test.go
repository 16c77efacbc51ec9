package gateway

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"testing"
)

// diffPage is a document big enough to have checkpoints and findings
// on both sides of an edit.
func diffPage() string {
	var b strings.Builder
	b.WriteString("<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "<P>paragraph %d <IMG SRC=\"%d.gif\"></P>\n", i, i)
	}
	b.WriteString("</BODY></HTML>\n")
	return b.String()
}

// TestDiffServesEditedDocument: submit a document, edit it through the
// diff path, and require the response byte-identical to submitting the
// edited document in full — the wire-level version of the Session's
// differential guarantee — with the edited text's own ETag and
// X-Weblint-Cache: diff.
func TestDiffServesEditedDocument(t *testing.T) {
	h := cachedHandler()
	base := diffPage()

	rec := postValues(h, url.Values{"html": {base}, "format": {"json"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("base submission: %d", rec.Code)
	}
	etag := rec.Header().Get("ETag")

	// Replace one IMG with an unclosed B in the middle of the page.
	needle := "<IMG SRC=\"25.gif\">"
	off := strings.Index(base, needle)
	edit := diffEdit{Start: off, End: off + len(needle), Text: "<B>bold"}
	raw, _ := json.Marshal([]diffEdit{edit})
	drec := postValues(h, url.Values{"diff": {etag}, "edits": {string(raw)}, "format": {"json"}})
	if drec.Code != http.StatusOK {
		t.Fatalf("diff request: %d: %s", drec.Code, drec.Body.String())
	}
	if got := drec.Header().Get("X-Weblint-Cache"); got != "diff" {
		t.Fatalf("X-Weblint-Cache = %q, want diff", got)
	}

	edited := base[:off] + "<B>bold" + base[off+len(needle):]
	full := postValues(h, url.Values{"html": {edited}, "format": {"json"}})
	if full.Code != http.StatusOK {
		t.Fatalf("full submission of edited doc: %d", full.Code)
	}
	if drec.Body.String() != full.Body.String() {
		t.Fatalf("diff response differs from full submission of the edited document\ndiff:\n%s\nfull:\n%s",
			drec.Body.String(), full.Body.String())
	}
	if drec.Header().Get("ETag") != full.Header().Get("ETag") {
		t.Fatalf("diff ETag %s != edited document's content ETag %s",
			drec.Header().Get("ETag"), full.Header().Get("ETag"))
	}

	// The diff result must not have entered the result cache: its key
	// was derived, not proven by an upload. The full submission above
	// therefore registered as a miss, not a hit.
	if got := full.Header().Get("X-Weblint-Cache"); got != "miss" {
		t.Fatalf("edited document's full submission X-Weblint-Cache = %q, want miss", got)
	}
}

// TestDiffChains: a diff response's ETag serves as the base for the
// next diff, and the session state advances with each one.
func TestDiffChains(t *testing.T) {
	h := cachedHandler()
	base := diffPage()
	rec := postValues(h, url.Values{"html": {base}, "format": {"json"}})
	etag := rec.Header().Get("ETag")
	text := base

	for i := 0; i < 3; i++ {
		ins := fmt.Sprintf("<P>round %d & counting</P>\n", i)
		off := strings.Index(text, "</BODY>")
		raw, _ := json.Marshal([]diffEdit{{Start: off, End: off, Text: ins}})
		drec := postValues(h, url.Values{"diff": {etag}, "edits": {string(raw)}, "format": {"json"}})
		if drec.Code != http.StatusOK {
			t.Fatalf("diff round %d: %d: %s", i, drec.Code, drec.Body.String())
		}
		text = text[:off] + ins + text[off:]
		full := postValues(h, url.Values{"html": {text}, "format": {"json"}})
		if drec.Body.String() != full.Body.String() {
			t.Fatalf("diff round %d diverged from full submission", i)
		}
		// The superseded base is gone: diffing against the old ETag
		// must demand a resubmission.
		if old := postValues(h, url.Values{"diff": {etag}, "edits": {string(raw)}}); old.Code != http.StatusPreconditionFailed {
			t.Fatalf("diff round %d against superseded base: %d, want 412", i, old.Code)
		}
		etag = drec.Header().Get("ETag")
	}
}

// TestDiffUnknownBase: an ETag the gateway has never issued (or has
// evicted) answers 412 so the client knows to resubmit in full.
func TestDiffUnknownBase(t *testing.T) {
	h := cachedHandler()
	unknown := `"` + strings.Repeat("ab", 32) + `"`
	raw, _ := json.Marshal([]diffEdit{{Start: 0, End: 0, Text: "x"}})
	rec := postValues(h, url.Values{"diff": {unknown}, "edits": {string(raw)}})
	if rec.Code != http.StatusPreconditionFailed {
		t.Fatalf("unknown base: %d, want 412", rec.Code)
	}
}

// TestDiffBadRequests: malformed diff fields are 400s, not crashes.
func TestDiffBadRequests(t *testing.T) {
	h := cachedHandler()
	rec := postValues(h, url.Values{"html": {brokenPage}})
	etag := rec.Header().Get("ETag")

	for name, form := range map[string]url.Values{
		"bad etag":   {"diff": {"not-hex"}, "edits": {"[]"}},
		"bad edits":  {"diff": {etag}, "edits": {"{not json"}},
		"bad format": {"diff": {etag}, "edits": {"[]"}, "format": {"nope"}},
	} {
		if got := postValues(h, form); got.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, got.Code)
		}
	}
}

// TestDiffRespectsUploadLimit: edits cannot grow a document past
// MaxUpload through the side door.
func TestDiffRespectsUploadLimit(t *testing.T) {
	h := cachedHandler()
	h.MaxUpload = int64(len(brokenPage) + 100)
	rec := postValues(h, url.Values{"html": {brokenPage}})
	etag := rec.Header().Get("ETag")
	raw, _ := json.Marshal([]diffEdit{{Start: 0, End: 0, Text: strings.Repeat("x", 200)}})
	if got := postValues(h, url.Values{"diff": {etag}, "edits": {string(raw)}}); got.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize diff: %d, want 413", got.Code)
	}
}

// TestDiffWithCacheOff: a gateway that stores no results still issues
// content-hash ETags and retains bases, so diff= works against it.
func TestDiffWithCacheOff(t *testing.T) {
	h := NewHandler(nil)
	base := diffPage()
	etag := postValues(h, url.Values{"html": {base}, "format": {"json"}}).Header().Get("ETag")

	const ins = "<P>new & more</P>\n"
	off := strings.Index(base, "</BODY>")
	raw, _ := json.Marshal([]diffEdit{{Start: off, End: off, Text: ins}})
	drec := postValues(h, url.Values{"diff": {etag}, "edits": {string(raw)}, "format": {"json"}})
	full := postValues(h, url.Values{"html": {base[:off] + ins + base[off:]}, "format": {"json"}})
	if drec.Code != http.StatusOK || drec.Header().Get("X-Weblint-Cache") != "diff" {
		t.Fatalf("diff against a cache-off gateway: %d %q", drec.Code, drec.Header().Get("X-Weblint-Cache"))
	}
	if drec.Body.String() != full.Body.String() {
		t.Fatalf("diff response differs from full submission\ndiff:\n%s\nfull:\n%s", drec.Body.String(), full.Body.String())
	}
}
