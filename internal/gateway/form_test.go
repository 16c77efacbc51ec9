package gateway

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// formContentTypes are the Content-Types FuzzFormDecode sends: the
// urlencoded type bare, with a parameter, malformed and cased, and
// bodies the fast path leaves to r.ParseForm.
var formContentTypes = []string{
	"application/x-www-form-urlencoded",
	"application/x-www-form-urlencoded; charset=utf-8",
	"application/x-www-form-urlencoded; charset",
	"Application/X-WWW-Form-URLEncoded",
	"text/plain",
	"",
	"not a media type",
}

// requireParseFormParity fails unless readForm leaves r.PostForm and
// r.Form as r.ParseForm alone does, and fails exactly when it fails,
// with the same message.
func requireParseFormParity(t *testing.T, body, rawQuery, contentType string) {
	t.Helper()
	newRequest := func() *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		r.URL.RawQuery = rawQuery
		if contentType != "" {
			r.Header.Set("Content-Type", contentType)
		}
		return r
	}
	want := newRequest()
	wantErr := want.ParseForm()

	got := newRequest()
	buf := new(bytes.Buffer)
	gotErr := readForm(got, buf)
	if (gotErr == nil) != (wantErr == nil) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("body %q query %q type %q: readForm error %v, ParseForm error %v", body, rawQuery, contentType, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got.PostForm, want.PostForm) {
		t.Fatalf("body %q query %q type %q: PostForm\n got %q\nwant %q", body, rawQuery, contentType, got.PostForm, want.PostForm)
	}
	if !reflect.DeepEqual(got.Form, want.Form) {
		t.Fatalf("body %q query %q type %q: Form\n got %q\nwant %q", body, rawQuery, contentType, got.Form, want.Form)
	}
}

// TestFormDecodeMatchesParseForm: the cases url.ParseQuery treats
// specially — '+', escapes of every kind, a truncated or bad escape in
// a key or a value, ';' anywhere in a pair, empty pairs, keys without
// '=', repeated keys — and the URL query merged after the body.
func TestFormDecodeMatchesParseForm(t *testing.T) {
	bodies := []string{
		"",
		"html=" + url.QueryEscape("<P ALIGN=\"x\">a+b & c%</P>\r\n\xff"),
		"format=json&html=%3CP%3E&html=second&format=sarif",
		"a+b=c+d&%41%42=%61%62&%2b=%2B",
		"&&a&=b&c=&=",
		"a=%zz&b=1", "a=%4&b=1", "a=%&b=1", "%g0=1&b=2", "a=1&b=%",
		"a=1;b=2&c=3", "a=1&b=2;", ";", "a=%zz&b=;&c=%1",
		"html=" + strings.Repeat("%25", 100),
	}
	queries := []string{"", "format=html", "html=from+query&x=1", "a=%zz", "a=1;b"}
	for _, body := range bodies {
		for _, q := range queries {
			for _, ct := range formContentTypes {
				requireParseFormParity(t, body, q, ct)
			}
		}
	}
}

// TestFormBodyOverLimitIs413: the urlencoded body is read under the
// handler's MaxBytesReader, so an oversize paste still answers 413.
func TestFormBodyOverLimitIs413(t *testing.T) {
	h := limitedHandler()
	rec := postValues(h, url.Values{"html": {strings.Repeat("<", testLimit+uploadSlack)}})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize urlencoded body: %d, want 413", rec.Code)
	}
}

// TestFormDecodeErrorIs400: a body url.ParseQuery rejects answers 400
// and names the problem, as it did when ParseForm read it.
func TestFormDecodeErrorIs400(t *testing.T) {
	for body, msg := range map[string]string{
		"html=%zz":        `invalid URL escape &#34;%zz&#34;`,
		"html=<P>;x":      "invalid semicolon separator in query",
		"format=json&a=%": `invalid URL escape &#34;%&#34;`,
	} {
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		rec := httptest.NewRecorder()
		NewHandler(nil).ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), msg) {
			t.Errorf("body %q: %d, want 400 naming %q:\n%s", body, rec.Code, msg, rec.Body.String())
		}
	}
}

// FuzzFormDecode: for any body, URL query and Content-Type, readForm
// leaves r.PostForm and r.Form equal to what a plain r.ParseForm
// leaves, and fails exactly when ParseForm fails.
func FuzzFormDecode(f *testing.F) {
	f.Add("format=json&html=%3CP+ALIGN%3D%22x%22%3E", "", uint8(0))
	f.Add("html=a%zz&format=sarif", "format=html", uint8(1))
	f.Add("a=1;b=2&&=&c", "a=%4", uint8(2))
	f.Add("%41+%2b=%e2%80%a8&html=%00%ff+", "html=q&html=%", uint8(3))
	f.Add("x=%", "y=1;z", uint8(4))
	f.Fuzz(func(t *testing.T, body, rawQuery string, ct uint8) {
		requireParseFormParity(t, body, rawQuery, formContentTypes[int(ct)%len(formContentTypes)])
	})
}
