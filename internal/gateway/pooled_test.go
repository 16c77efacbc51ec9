package gateway

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"weblint/internal/baseline"
	"weblint/internal/corpus"
	"weblint/internal/fetch"
	"weblint/internal/fixit"
	"weblint/internal/lint"
	"weblint/internal/render"
)

// directRender lints doc under name with a fresh Linter and renders
// the findings as the gateway's format=json, sarif, baseline or fixed
// answer does.
func directRender(t *testing.T, format, name, doc string) string {
	t.Helper()
	l := lint.MustNew(lint.Options{})
	ctx := context.Background()
	var out bytes.Buffer
	var err error
	switch format {
	case "json", "sarif":
		rd, rerr := render.New(format, &out)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err = l.Check(ctx, name, []byte(doc), rd); err == nil {
			err = rd.Close()
		}
	case "baseline":
		b := baseline.NewRecorder(nil)
		b.Document(name, doc)
		err = l.Check(ctx, name, []byte(doc), b)
		out.Write(b.File().Encode())
	case "fixed":
		var ap fixit.Applier
		err = l.Check(ctx, name, []byte(doc), &ap)
		fixed, _ := ap.Apply(doc)
		out.WriteString(fixed)
	default:
		t.Fatalf("no direct render for format %s", format)
	}
	if err != nil {
		t.Fatalf("direct %s render of %s: %v", format, name, err)
	}
	return out.String()
}

// rot13 maps every ASCII letter of s to another letter: a document of
// the same length whose bytes differ wherever s has a letter.
func rot13(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case 'a' <= r && r <= 'z':
			return 'a' + (r-'a'+13)%26
		case 'A' <= r && r <= 'Z':
			return 'A' + (r-'A'+13)%26
		}
		return r
	}, s)
}

// TestResultsOutliveRequestBuffers: a pasted document, and every other
// form value, is decoded into the request's pooled buffer, which a
// later request reuses. Nothing the gateway keeps past a request — a
// cached finding stream, a retained diff base, the document name in
// either — may alias that buffer. So after document A, then B (same
// length, other bytes), A's answers in every format must equal a
// fresh render of A: pasted, fetched by url= (whose name is a form
// value), and through a diff= against A's ETag sent after B.
func TestResultsOutliveRequestBuffers(t *testing.T) {
	docA := corpus.GenerateSized(3, 8<<10, corpus.Uniform(0.1))
	docB := rot13(docA)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		doc := docA
		if r.URL.Path == "/b.html" {
			doc = docB
		}
		_, _ = w.Write([]byte(doc))
	}))
	defer origin.Close()
	gateway := func() *Handler {
		h := cachedHandler()
		h.Fetcher = fetch.New(fetch.Options{AllowPrivate: true, MaxBody: h.maxUpload()})
		return h
	}

	for _, tc := range []struct {
		how          string
		name         string
		formA, formB url.Values
	}{
		{"pasted", "pasted HTML", url.Values{"html": {docA}}, url.Values{"html": {docB}}},
		{"by URL", origin.URL + "/a.html", url.Values{"url": {origin.URL + "/a.html"}}, url.Values{"url": {origin.URL + "/b.html"}}},
	} {
		t.Run(tc.how, func(t *testing.T) {
			postTo := func(h *Handler, form url.Values, format string) *httptest.ResponseRecorder {
				t.Helper()
				f := url.Values{"format": {format}}
				for k, v := range form {
					f[k] = v
				}
				rec := postValues(h, f)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s format=%s: %d %s", tc.how, format, rec.Code, rec.Body.String())
				}
				return rec
			}
			h := gateway()
			etagA := postTo(h, tc.formA, "json").Header().Get("ETag")
			if got := postTo(h, tc.formB, "json").Header().Get("ETag"); got == etagA {
				t.Fatal("A and B share an ETag")
			}

			for _, format := range []string{"json", "sarif", "fixed", "baseline"} {
				rec := postTo(h, tc.formA, format)
				if disp := rec.Header().Get("X-Weblint-Cache"); disp != "hit" {
					t.Errorf("format=%s after B: X-Weblint-Cache %q, want hit", format, disp)
				}
				if want := directRender(t, format, tc.name, docA); rec.Body.String() != want {
					t.Errorf("format=%s after B differs from a fresh render of A:\n got %.300s\nwant %.300s", format, rec.Body.String(), want)
				}
			}
			got, want := postTo(h, tc.formA, "html").Body.String(), postTo(gateway(), tc.formA, "html").Body.String()
			if got != want {
				t.Errorf("format=html after B differs from a fresh gateway's report on A:\n got %.300s\nwant %.300s", got, want)
			}

			// The base retained for A keeps A's text and name.
			d := postValues(h, url.Values{"diff": {etagA}, "edits": {"[]"}, "format": {"json"}})
			if d.Code != http.StatusOK {
				t.Fatalf("diff against A after B: %d %s", d.Code, d.Body.String())
			}
			if want := directRender(t, "json", tc.name, docA); d.Body.String() != want {
				t.Errorf("diff against A after B differs from a fresh render of A:\n got %.300s\nwant %.300s", d.Body.String(), want)
			}
		})
	}
}
