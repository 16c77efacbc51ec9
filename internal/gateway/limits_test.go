package gateway

import (
	"bytes"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"weblint/internal/fetch"
)

// The size-limit tests exercise the 413 contract at the exact boundary
// on every input path: a document of exactly MaxUpload bytes is
// checked in full, one byte more is refused with 413, and nothing is
// ever silently truncated (the seed's behaviour was to lint the first
// MaxUpload bytes of an oversize upload and report on the prefix as if
// it were the document).

const testLimit = 4 << 10

// docOfSize builds an HTML document of exactly n bytes whose last
// element is a marker that only survives to the report when the whole
// document was read.
func docOfSize(t *testing.T, n int) string {
	t.Helper()
	const head = "<HTML><BODY><P>"
	const tail = "<XMARKERX></BODY></HTML>"
	pad := n - len(head) - len(tail)
	if pad < 0 {
		t.Fatalf("docOfSize(%d): too small for skeleton", n)
	}
	doc := head + strings.Repeat("a", pad) + tail
	if len(doc) != n {
		t.Fatalf("docOfSize(%d): built %d bytes", n, len(doc))
	}
	return doc
}

func limitedHandler() *Handler {
	h := NewHandler(nil)
	h.MaxUpload = testLimit
	return h
}

func postValues(h *Handler, form url.Values) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(form.Encode()))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// postUpload submits doc as a file upload named name, asking for
// format unless it is empty.
func postUpload(t *testing.T, h *Handler, name, doc, format string) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	if format != "" {
		if err := mw.WriteField("format", format); err != nil {
			t.Fatal(err)
		}
	}
	fw, err := mw.CreateFormFile("upload", name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(fw, doc); err != nil {
		t.Fatal(err)
	}
	_ = mw.Close()
	req := httptest.NewRequest(http.MethodPost, "/", &buf)
	req.Header.Set("Content-Type", mw.FormDataContentType())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestPasteAtLimitCheckedInFull(t *testing.T) {
	h := limitedHandler()
	rec := postValues(h, url.Values{"html": {docOfSize(t, testLimit)}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d for a document exactly at the limit", rec.Code)
	}
	// The marker element at the end of the document draws an
	// unknown-element finding — proof the tail was checked, not cut.
	if !strings.Contains(rec.Body.String(), "XMARKERX") {
		t.Error("finding for the document's final element missing: the tail was not checked")
	}
}

func TestPasteOverLimitIs413(t *testing.T) {
	h := limitedHandler()
	rec := postValues(h, url.Values{"html": {docOfSize(t, testLimit+1)}})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "document too large") {
		t.Errorf("413 body does not explain the limit: %s", rec.Body.String())
	}
}

func TestUploadAtLimitCheckedInFull(t *testing.T) {
	h := limitedHandler()
	rec := postUpload(t, h, "exact.html", docOfSize(t, testLimit), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d for an upload exactly at the limit", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "XMARKERX") {
		t.Error("finding for the upload's final element missing: the tail was not checked")
	}
}

func TestUploadOverLimitIs413(t *testing.T) {
	h := limitedHandler()
	rec := postUpload(t, h, "big.html", docOfSize(t, testLimit+1), "")
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "document too large") {
		t.Errorf("413 body does not explain the limit: %s", rec.Body.String())
	}
}

func TestFetchAtLimitCheckedInFull(t *testing.T) {
	doc := docOfSize(t, testLimit)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, doc)
	}))
	defer origin.Close()

	h := limitedHandler()
	h.Fetcher = fetch.New(fetch.Options{AllowPrivate: true, MaxBody: h.maxUpload()})
	rec := postValues(h, url.Values{"url": {origin.URL + "/exact.html"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d for a fetched page exactly at the limit", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "XMARKERX") {
		t.Error("finding for the fetched page's final element missing: the tail was not checked")
	}
}

func TestFetchOverLimitIs413(t *testing.T) {
	doc := docOfSize(t, testLimit+1)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, doc)
	}))
	defer origin.Close()

	h := limitedHandler()
	h.Fetcher = fetch.New(fetch.Options{AllowPrivate: true, MaxBody: h.maxUpload()})
	rec := postValues(h, url.Values{"url": {origin.URL + "/big.html"}})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "size limit") {
		t.Errorf("413 body does not explain the limit: %s", rec.Body.String())
	}
}
