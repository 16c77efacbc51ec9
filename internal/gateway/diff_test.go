package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"weblint/internal/faultinject"
	"weblint/internal/lint"
	"weblint/internal/serve"
)

// diffPage is a document with findings on both sides of an edit.
func diffPage() string {
	var b strings.Builder
	b.WriteString("<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\n")
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&b, "<P>paragraph %d <IMG SRC=\"%d.gif\"></P>\n", i, i)
	}
	b.WriteString("</BODY></HTML>\n")
	return b.String()
}

// applyReference is the test's own statement of how a diff edits its
// base: each edit, in order, against the result of the previous one;
// an offset past either end moves to that end, and an end before the
// start becomes the start.
func applyReference(text string, edits []lint.Edit) string {
	for _, e := range edits {
		start := min(max(e.Start, 0), len(text))
		end := min(max(e.End, start), len(text))
		text = text[:start] + e.Text + text[end:]
	}
	return text
}

// postDiff sends edits against the base that etag names.
func postDiff(t testing.TB, h *Handler, etag string, edits []lint.Edit, format string) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(edits)
	if err != nil {
		t.Fatal(err)
	}
	return postValues(h, url.Values{"diff": {etag}, "edits": {string(raw)}, "format": {format}})
}

// diffCases are edit lists against diffPage: an ordinary replacement,
// each clamping edge, an edit landing in text the previous one
// inserted, and no edits at all.
func diffCases(base string) []struct {
	name  string
	edits []lint.Edit
} {
	needle := "<IMG SRC=\"25.gif\">"
	off := strings.Index(base, needle)
	body := strings.Index(base, "</BODY>")
	return []struct {
		name  string
		edits []lint.Edit
	}{
		// Replace one IMG with an unclosed B in the middle of the page.
		{"replace", []lint.Edit{{Start: off, End: off + len(needle), Text: "<B>bold"}}},
		{"negative start", []lint.Edit{{Start: -7, End: 0, Text: "<!DOCTYPE HTML PUBLIC \"-//W3C//DTD HTML 4.0//EN\">\n"}}},
		{"start past end", []lint.Edit{{Start: len(base) + 10, End: len(base) + 20, Text: "<P>after the end"}}},
		{"end before start", []lint.Edit{{Start: off, End: off - 5, Text: "<H1>x</H2>"}}},
		{"end past end", []lint.Edit{{Start: body, End: len(base) + 100, Text: "<P>cut"}}},
		{"second edit inside first insert", []lint.Edit{
			{Start: off, End: off, Text: "<P>inserted <B>text</B></P>"},
			{Start: off + 12, End: off + 15, Text: "<I>"},
		}},
		{"empty list", []lint.Edit{}},
	}
}

// TestDiffServesEditedDocument: submit a document, edit it through a
// diff, and require the response byte-identical, body and ETag, to a
// full submission of the edited document on a fresh gateway. The diff
// result is cached under the edited text's key like any other result.
func TestDiffServesEditedDocument(t *testing.T) {
	base := diffPage()
	for _, tc := range diffCases(base) {
		t.Run(tc.name, func(t *testing.T) {
			h := cachedHandler()
			rec := postValues(h, url.Values{"html": {base}, "format": {"json"}})
			if rec.Code != http.StatusOK {
				t.Fatalf("base submission: %d", rec.Code)
			}
			drec := postDiff(t, h, rec.Header().Get("ETag"), tc.edits, "json")
			if drec.Code != http.StatusOK {
				t.Fatalf("diff request: %d: %s", drec.Code, drec.Body.String())
			}

			edited := applyReference(base, tc.edits)
			wantDisp := "miss"
			if edited == base {
				wantDisp = "hit"
			}
			if got := drec.Header().Get("X-Weblint-Cache"); got != wantDisp {
				t.Fatalf("X-Weblint-Cache = %q, want %s", got, wantDisp)
			}

			full := postValues(cachedHandler(), url.Values{"html": {edited}, "format": {"json"}})
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

			// The diff result entered the result cache under the edited
			// text's key, so a full submission of that text hits it.
			again := postValues(h, url.Values{"html": {edited}, "format": {"json"}})
			if got := again.Header().Get("X-Weblint-Cache"); got != "hit" {
				t.Fatalf("edited document's full submission X-Weblint-Cache = %q, want hit", got)
			}
		})
	}
}

// FuzzDiff: any edits against any base answer exactly what a full
// submission of the reference-edited text answers on a gateway that
// never saw the base.
func FuzzDiff(f *testing.F) {
	base := diffPage()
	for _, tc := range diffCases(base) {
		var e [2]lint.Edit
		copy(e[:], tc.edits)
		f.Add(base, e[0].Start, e[0].End, e[0].Text, e[1].Start, e[1].End, e[1].Text, uint8(len(tc.edits)))
	}
	f.Add("<P>x</P>", 0, 8, " \n", 0, 0, "", uint8(1))

	h := cachedHandler()
	f.Fuzz(func(t *testing.T, doc string, s1, e1 int, t1 string, s2, e2 int, t2 string, n uint8) {
		rec := postValues(h, url.Values{"html": {doc}, "format": {"json"}})
		etag := rec.Header().Get("ETag")
		if rec.Code != http.StatusOK || etag == "" {
			t.Skip("base is not a lintable document")
		}
		edits := []lint.Edit{{Start: s1, End: e1, Text: t1}, {Start: s2, End: e2, Text: t2}}[:n%3]
		drec := postDiff(t, h, etag, edits, "json")

		// The reference edits what the gateway decodes: JSON replaces
		// invalid UTF-8 in edit texts.
		raw, _ := json.Marshal(edits)
		var sent []lint.Edit
		if err := json.Unmarshal(raw, &sent); err != nil {
			t.Fatal(err)
		}
		full := postValues(NewHandler(h.Linter), url.Values{"html": {applyReference(doc, sent)}, "format": {"json"}})
		if drec.Code != full.Code || drec.Body.String() != full.Body.String() ||
			drec.Header().Get("ETag") != full.Header().Get("ETag") {
			t.Fatalf("diff answered %d %s\n%s\nfull submission answered %d %s\n%s",
				drec.Code, drec.Header().Get("ETag"), drec.Body.String(),
				full.Code, full.Header().Get("ETag"), full.Body.String())
		}
	})
}

// TestDiffChains: a diff response's ETag serves as the base for the
// next diff. An older base stays valid until it is evicted.
func TestDiffChains(t *testing.T) {
	h := cachedHandler()
	base := diffPage()
	rec := postValues(h, url.Values{"html": {base}, "format": {"json"}})
	etag := rec.Header().Get("ETag")
	text := base

	for i := 0; i < 3; i++ {
		ins := fmt.Sprintf("<P>round %d & counting</P>\n", i)
		off := strings.Index(text, "</BODY>")
		raw, _ := json.Marshal([]lint.Edit{{Start: off, End: off, Text: ins}})
		drec := postValues(h, url.Values{"diff": {etag}, "edits": {string(raw)}, "format": {"json"}})
		if drec.Code != http.StatusOK {
			t.Fatalf("diff round %d: %d: %s", i, drec.Code, drec.Body.String())
		}
		text = text[:off] + ins + text[off:]
		full := postValues(h, url.Values{"html": {text}, "format": {"json"}})
		if drec.Body.String() != full.Body.String() {
			t.Fatalf("diff round %d diverged from full submission", i)
		}
		// The older base is still retained: the same edits against it
		// answer the same edited document.
		old := postValues(h, url.Values{"diff": {etag}, "edits": {string(raw)}, "format": {"json"}})
		if old.Code != http.StatusOK || old.Header().Get("ETag") != drec.Header().Get("ETag") {
			t.Fatalf("diff round %d against the older base: %d %s, want 200 %s",
				i, old.Code, old.Header().Get("ETag"), drec.Header().Get("ETag"))
		}
		etag = drec.Header().Get("ETag")
	}
}

// TestDiffUnknownBase: an ETag the gateway has never issued (or has
// evicted) answers 412 so the client knows to resubmit in full.
func TestDiffUnknownBase(t *testing.T) {
	h := cachedHandler()
	unknown := `"` + strings.Repeat("ab", 32) + `"`
	raw, _ := json.Marshal([]lint.Edit{{Start: 0, End: 0, Text: "x"}})
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
	raw, _ := json.Marshal([]lint.Edit{{Start: 0, End: 0, Text: strings.Repeat("x", 200)}})
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
	raw, _ := json.Marshal([]lint.Edit{{Start: off, End: off, Text: ins}})
	drec := postValues(h, url.Values{"diff": {etag}, "edits": {string(raw)}, "format": {"json"}})
	full := postValues(h, url.Values{"html": {base[:off] + ins + base[off:]}, "format": {"json"}})
	if drec.Code != http.StatusOK || drec.Header().Get("X-Weblint-Cache") != "miss" {
		t.Fatalf("diff against a cache-off gateway: %d %q", drec.Code, drec.Header().Get("X-Weblint-Cache"))
	}
	if drec.Body.String() != full.Body.String() {
		t.Fatalf("diff response differs from full submission\ndiff:\n%s\nfull:\n%s", drec.Body.String(), full.Body.String())
	}
}

// TestDiffTakesTheSubmissionPath: a diff's lint is admitted, budgeted
// and fault-injected like any submission's, so each way a lint can
// fail answers a diff the way it answers an upload.
func TestDiffTakesTheSubmissionPath(t *testing.T) {
	edit := []lint.Edit{{Start: 0, End: 0, Text: "<P>edited</P>\n"}}
	for _, tc := range []struct {
		name  string
		setup func(t *testing.T, h *Handler) (undo func())
		want  int
	}{
		{"budget", func(t *testing.T, h *Handler) func() {
			h.LintBudget = time.Nanosecond
			return func() {}
		}, http.StatusGatewayTimeout},
		{"fault", func(t *testing.T, h *Handler) func() {
			faultinject.Arm("gateway.lint", faultinject.Fault{Err: errors.New("injected lint failure"), Count: 1})
			return faultinject.Reset
		}, http.StatusInternalServerError},
		{"saturation", func(t *testing.T, h *Handler) func() {
			release, err := h.Limiter.Acquire(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			return release
		}, http.StatusTooManyRequests},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHandler(nil)
			h.Limiter = serve.NewLimiter(1, 10*time.Millisecond)
			etag := postValues(h, url.Values{"html": {brokenPage}}).Header().Get("ETag")
			undo := tc.setup(t, h)
			defer undo()
			rec := postDiff(t, h, etag, edit, "html")
			if rec.Code != tc.want {
				t.Fatalf("diff answered %d, want %d", rec.Code, tc.want)
			}
			if tc.want == http.StatusTooManyRequests && rec.Header().Get("Retry-After") == "" {
				t.Error("429 carries no Retry-After header")
			}
		})
	}
}

// TestDiffCountsInMetrics: every diff response carrying
// X-Weblint-Cache counts in the cache counters, and every diff lint is
// observed, so the /metrics reconciliation holds for diffs too.
func TestDiffCountsInMetrics(t *testing.T) {
	h := cachedHandler()
	base := diffPage()
	rec := postValues(h, url.Values{"html": {base}})
	etag := rec.Header().Get("ETag")
	responses := 1
	for i := 0; i < 3; i++ {
		d := postDiff(t, h, etag, []lint.Edit{{Start: 0, End: 0, Text: fmt.Sprintf("<P>%d</P>", i)}}, "html")
		if d.Code != http.StatusOK || d.Header().Get("X-Weblint-Cache") == "" {
			t.Fatalf("diff %d: %d %q", i, d.Code, d.Header().Get("X-Weblint-Cache"))
		}
		etag = d.Header().Get("ETag")
		responses++
	}
	m := h.Metrics
	if got := m.CacheHits.Value() + m.CacheMisses.Value() + m.CacheCoalesced.Value(); got != int64(responses) {
		t.Fatalf("cache counters sum to %d over %d responses carrying X-Weblint-Cache", got, responses)
	}
	if got := m.LintDuration.Count(); got != int64(responses) {
		t.Fatalf("lint histogram observed %d lints, want %d", got, responses)
	}
}

// TestDiffToBlankAnswersLikeFullSubmission: a diff that leaves only
// whitespace answers the form page, as submitting that text does.
func TestDiffToBlankAnswersLikeFullSubmission(t *testing.T) {
	h := cachedHandler()
	etag := postValues(h, url.Values{"html": {brokenPage}}).Header().Get("ETag")
	const blank = " \n\t\n"
	d := postDiff(t, h, etag, []lint.Edit{{Start: 0, End: len(brokenPage), Text: blank}}, "html")
	full := postValues(cachedHandler(), url.Values{"html": {blank}})
	if d.Code != full.Code || d.Body.String() != full.Body.String() ||
		d.Header().Get("ETag") != full.Header().Get("ETag") {
		t.Fatalf("blanking diff answered %d %q\n%s\nfull submission answered %d %q\n%s",
			d.Code, d.Header().Get("ETag"), d.Body.String(), full.Code, full.Header().Get("ETag"), full.Body.String())
	}
}

// TestDiffHonoursIfNoneMatch: a diff whose edited text the client
// already holds, by its ETag, answers 304 like a full submission.
func TestDiffHonoursIfNoneMatch(t *testing.T) {
	h := cachedHandler()
	etag := postValues(h, url.Values{"html": {brokenPage}}).Header().Get("ETag")
	const ins = "<P>new</P>\n"
	edited := postValues(cachedHandler(), url.Values{"html": {ins + brokenPage}}).Header().Get("ETag")
	raw, _ := json.Marshal([]lint.Edit{{Start: 0, End: 0, Text: ins}})
	form := url.Values{"diff": {etag}, "edits": {string(raw)}}
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Header.Set("If-None-Match", edited)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotModified || rec.Header().Get("ETag") != edited {
		t.Fatalf("diff with If-None-Match %s answered %d %s, want 304", edited, rec.Code, rec.Header().Get("ETag"))
	}
}

// TestBaseCap: the gateway retains at most defaultBaseCapacity bases.
// The ninth distinct submission evicts the first, so a diff against
// the first ETag answers 412, and concurrent submissions and diffs
// never leave more bases than the cap.
func TestBaseCap(t *testing.T) {
	h := NewHandler(nil)
	doc := func(i int) string { return fmt.Sprintf("<HTML><BODY><P>document %d</P></BODY></HTML>\n", i) }
	var etags []string
	for i := 0; i <= defaultBaseCapacity; i++ {
		etags = append(etags, postValues(h, url.Values{"html": {doc(i)}}).Header().Get("ETag"))
	}
	if got := postDiff(t, h, etags[0], nil, "json"); got.Code != http.StatusPreconditionFailed {
		t.Fatalf("diff against the evicted first base: %d, want 412", got.Code)
	}
	if got := postDiff(t, h, etags[1], nil, "json"); got.Code != http.StatusOK {
		t.Fatalf("diff against the oldest retained base: %d, want 200", got.Code)
	}

	stop := make(chan struct{})
	sampled := make(chan error, 1)
	go func() {
		defer close(sampled)
		for {
			if entries := h.bases.Len(); entries > defaultBaseCapacity {
				sampled <- fmt.Errorf("%d bases, cap %d", entries, defaultBaseCapacity)
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	edits, _ := json.Marshal([]lint.Edit{{Start: 0, End: 0, Text: "<!-- edited -->"}})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				etag := postValues(h, url.Values{"html": {doc(100*g + i)}}).Header().Get("ETag")
				postValues(h, url.Values{"diff": {etag}, "edits": {string(edits)}, "format": {"json"}})
			}
		}()
	}
	wg.Wait()
	close(stop)
	if err := <-sampled; err != nil {
		t.Fatal(err)
	}
	if entries := h.bases.Len(); entries != defaultBaseCapacity {
		t.Fatalf("%d bases after the burst, want %d", entries, defaultBaseCapacity)
	}
}
