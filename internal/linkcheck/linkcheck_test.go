package linkcheck

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"weblint/internal/fetch"
)

func TestExtract(t *testing.T) {
	src := `<HTML><BODY BACKGROUND="bg.gif">
<A HREF="page.html">one</A>
<IMG SRC="pic.gif" ALT="p" LOWSRC="lo.gif">
<AREA HREF="map.html" ALT="m">
<FORM ACTION="/cgi/submit"></FORM>
<SCRIPT SRC="s.js"></SCRIPT>
<BLOCKQUOTE CITE="http://src.org/q"></BLOCKQUOTE>
</BODY></HTML>`
	links, _ := Scan(src)
	want := map[string]string{
		"bg.gif":           "body/background",
		"page.html":        "a/href",
		"pic.gif":          "img/src",
		"lo.gif":           "img/lowsrc",
		"map.html":         "area/href",
		"/cgi/submit":      "form/action",
		"s.js":             "script/src",
		"http://src.org/q": "blockquote/cite",
	}
	if len(links) != len(want) {
		t.Fatalf("got %d links, want %d: %+v", len(links), len(want), links)
	}
	for _, l := range links {
		if want[l.URL] != l.Element+"/"+l.Attr {
			t.Errorf("link %q from %s/%s, want %s", l.URL, l.Element, l.Attr, want[l.URL])
		}
		if l.Line < 1 {
			t.Errorf("link %q line = %d", l.URL, l.Line)
		}
	}
}

func TestExtractSkipsOddQuoteTags(t *testing.T) {
	links, _ := Scan(`<A HREF="broken.html>x</A>`)
	if len(links) != 0 {
		t.Errorf("links from garbled tag: %+v", links)
	}
}

func TestExtractEmptyValues(t *testing.T) {
	links, _ := Scan(`<A HREF="">x</A><A NAME="anchor">y</A>`)
	if len(links) != 0 {
		t.Errorf("links = %+v", links)
	}
}

func TestAnchors(t *testing.T) {
	src := `<A NAME="top">x</A><P ID="sec1">y</P><A HREF="z">no name</A>`
	_, anchors := Scan(src)
	if !anchors["top"] || !anchors["sec1"] {
		t.Errorf("anchors = %v", anchors)
	}
	if len(anchors) != 2 {
		t.Errorf("anchors = %v", anchors)
	}
}

func TestIsExternal(t *testing.T) {
	ext := []string{"http://x/", "https://x/", "ftp://h/f", "mailto:a@b", "//proto-relative/x", "news:comp.infosystems"}
	local := []string{"page.html", "/abs/page.html", "../up.html", "dir/x.html", "#frag", "dir with space:x"}
	for _, u := range ext {
		if !IsExternal(u) {
			t.Errorf("IsExternal(%q) = false", u)
		}
	}
	for _, u := range local {
		if IsExternal(u) {
			t.Errorf("IsExternal(%q) = true", u)
		}
	}
}

func TestSplitFragmentAndQuery(t *testing.T) {
	doc, frag := SplitFragment("page.html#sec")
	if doc != "page.html" || frag != "sec" {
		t.Errorf("split = %q, %q", doc, frag)
	}
	doc, frag = SplitFragment("plain.html")
	if doc != "plain.html" || frag != "" {
		t.Errorf("split = %q, %q", doc, frag)
	}
	if StripQuery("x.html?a=1") != "x.html" || StripQuery("x.html") != "x.html" {
		t.Error("StripQuery wrong")
	}
}

func newTestServer() *httptest.Server {
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/gone", func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	})
	mux.HandleFunc("/moved", func(w http.ResponseWriter, r *http.Request) {
		http.Redirect(w, r, "/ok", http.StatusMovedPermanently)
	})
	mux.HandleFunc("/no-head", func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodHead {
			w.WriteHeader(http.StatusMethodNotAllowed)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/server-error", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
	})
	return httptest.NewServer(mux)
}

func TestCheckOneOK(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	res := CheckOne(srv.URL + "/ok")
	if !res.OK || res.Status != 200 || res.Err != nil {
		t.Errorf("result = %+v", res)
	}
}

// TestCheckOne404: a missing target is not OK, and neither is a
// server error.
func TestCheckOne404(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	for path, status := range map[string]int{"/gone": 404, "/server-error": 500} {
		res := CheckOne(srv.URL + path)
		if res.OK || res.Status != status {
			t.Errorf("%s: result = %+v", path, res)
		}
	}
}

func TestCheckOneRedirect(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	res := CheckOne(srv.URL + "/moved")
	if !res.OK {
		t.Errorf("result = %+v", res)
	}
	if res.FinalURL != srv.URL+"/ok" {
		t.Errorf("final URL = %q (redirect fixing info)", res.FinalURL)
	}
}

// TestCheckOneRedirectLoop: a link that redirects to itself is
// reported with fetch's redirect-cap error once 10 requests have been
// sent, the 10th redirect refused. The error text, which names the
// refused target, is what poacher prints after "broken external link:".
func TestCheckOneRedirectLoop(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		http.Redirect(w, r, "/loop", http.StatusFound)
	}))
	defer srv.Close()
	url := srv.URL + "/loop"
	res := CheckOne(url)
	if !errors.Is(res.Err, fetch.ErrTooManyRedirects) || res.OK {
		t.Fatalf("result = %+v, want the redirect-cap error", res)
	}
	if want := url + `: error: Head "/loop": too many redirects`; res.String() != want {
		t.Errorf("String() = %q, want %q", res.String(), want)
	}
	if n := hits.Load(); n != 10 {
		t.Errorf("server saw %d requests, want 10", n)
	}
}

func TestCheckOneHeadFallback(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	res := CheckOne(srv.URL + "/no-head")
	if !res.OK || res.Status != 200 {
		t.Errorf("HEAD-rejecting server not retried with GET: %+v", res)
	}
}

func TestCheckOneTransportError(t *testing.T) {
	res := CheckOne("http://127.0.0.1:1/unreachable")
	if res.Err == nil || res.OK {
		t.Errorf("result = %+v", res)
	}
}

func TestResultString(t *testing.T) {
	cases := []struct {
		res  Result
		want string
	}{
		{Result{URL: "u", OK: true}, "u: ok"},
		{Result{URL: "u", Status: 404}, "u: 404"},
		{Result{URL: "u", OK: true, FinalURL: "v"}, "u: ok (redirects to v)"},
	}
	for _, tc := range cases {
		if got := tc.res.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}
