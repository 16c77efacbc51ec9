package lint

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"weblint/internal/bufpool"
	"weblint/internal/config"
	"weblint/internal/core"
	"weblint/internal/csslint"
	"weblint/internal/plugin"
)

const brokenPage = `<HTML>
<HEAD>
<TITLE>example page
</HEAD>
<BODY BGCOLOR="fffff" TEXT=#00ff00>
<H1>My Example</H2>
Click <B><A HREF="a.html>here</B></A>
for more details.
</BODY>
</HTML>
`

func TestCheckStringSection42(t *testing.T) {
	l := MustNew(Options{})
	msgs := l.CheckString("test.html", brokenPage)
	if len(msgs) != 7 {
		t.Fatalf("got %d messages, want 7", len(msgs))
	}
	// Sorted by line.
	for i := 1; i < len(msgs); i++ {
		if msgs[i].Line < msgs[i-1].Line {
			t.Error("messages not sorted by line")
		}
	}
	if msgs[0].File != "test.html" {
		t.Errorf("file = %q", msgs[0].File)
	}
}

func TestCheckFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "page.html")
	if err := os.WriteFile(path, []byte(brokenPage), 0o644); err != nil {
		t.Fatal(err)
	}
	l := MustNew(Options{})
	msgs, err := l.CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 7 {
		t.Errorf("got %d messages, want 7", len(msgs))
	}
	if msgs[0].File != path {
		t.Errorf("file = %q", msgs[0].File)
	}
	if _, err := l.CheckFile(filepath.Join(dir, "missing.html")); err == nil {
		t.Error("missing file did not error")
	}
}

// TestCheckReader: a document that arrives through an io.Reader, a
// byte at a time, is drained into a pooled buffer and checked with
// Check — the CLI's stdin intake — and yields the seven section 4.2
// findings, exactly as CheckString reports them.
func TestCheckReader(t *testing.T) {
	l := MustNew(Options{})
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	if _, err := buf.ReadFrom(iotest.OneByteReader(strings.NewReader(brokenPage))); err != nil {
		t.Fatal(err)
	}
	msgs := checkSorted(t, l, "r.html", buf.Bytes())
	if len(msgs) != 7 {
		t.Errorf("got %d messages, want 7", len(msgs))
	}
	if want := l.CheckString("r.html", brokenPage); !reflect.DeepEqual(msgs, want) {
		t.Errorf("reader intake = %v\nwant %v", msgs, want)
	}
}

// TestCheckURL: ReadURL plus Check, with the URL naming the messages;
// a status other than 200 is an error.
func TestCheckURL(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/":
			w.Header().Set("Content-Type", "text/html")
			_, _ = w.Write([]byte(brokenPage))
		default:
			http.NotFound(w, r)
		}
	}))
	defer srv.Close()

	l := MustNew(Options{})
	var buf bytes.Buffer
	if err := ReadURL(context.Background(), srv.URL+"/", &buf); err != nil {
		t.Fatal(err)
	}
	msgs := checkSorted(t, l, srv.URL+"/", buf.Bytes())
	if len(msgs) != 7 {
		t.Errorf("got %d messages, want 7", len(msgs))
	}
	if msgs[0].File != srv.URL+"/" {
		t.Errorf("file = %q", msgs[0].File)
	}

	buf.Reset()
	err := ReadURL(context.Background(), srv.URL+"/missing", &buf)
	if err == nil || !strings.Contains(err.Error(), "404 Not Found") {
		t.Errorf("404: err = %v", err)
	}
}

func TestPedantic(t *testing.T) {
	src := "<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE>" +
		"<META NAME=\"description\" CONTENT=\"d\"><META NAME=\"keywords\" CONTENT=\"k\">" +
		"</HEAD><BODY><P>see <A HREF=\"x.html\">here</A></P></BODY></HTML>"
	def := MustNew(Options{})
	if msgs := def.CheckString("p.html", src); len(msgs) != 0 {
		t.Fatalf("default run produced %v", msgs)
	}
	ped := MustNew(Options{Pedantic: true})
	msgs := ped.CheckString("p.html", src)
	found := false
	for _, m := range msgs {
		if m.ID == "here-anchor" {
			found = true
		}
	}
	if !found {
		t.Errorf("pedantic run missing here-anchor: %v", msgs)
	}
}

func TestSettingsDrivenVersion(t *testing.T) {
	s := config.NewSettings()
	s.HTMLVersion = "3.2"
	l, err := New(Options{Settings: s})
	if err != nil {
		t.Fatal(err)
	}
	if l.Spec().Version != "HTML 3.2" {
		t.Errorf("spec = %s", l.Spec().Version)
	}
	// SPAN is 4.0-only: flagged as unknown under 3.2.
	msgs := l.CheckString("v.html", "<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><SPAN>x</SPAN></BODY></HTML>")
	found := false
	for _, m := range msgs {
		if m.ID == "unknown-element" && strings.Contains(m.Text, "SPAN") {
			found = true
		}
	}
	if !found {
		t.Errorf("SPAN not flagged under 3.2: %v", msgs)
	}
}

func TestUnknownVersionErrors(t *testing.T) {
	s := config.NewSettings()
	s.HTMLVersion = "5.0"
	if _, err := New(Options{Settings: s}); err == nil {
		t.Error("unknown version accepted")
	}
}

func TestSettingsDrivenExtensions(t *testing.T) {
	s := config.NewSettings()
	s.Extensions = []string{"netscape"}
	l := MustNew(Options{Settings: s})
	msgs := l.CheckString("x.html",
		"<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY><BLINK>hi</BLINK></BODY></HTML>")
	for _, m := range msgs {
		if m.ID == "extension-markup" {
			t.Errorf("BLINK flagged despite netscape extension: %v", m)
		}
	}
}

func TestLocaleThroughSettings(t *testing.T) {
	s := config.NewSettings()
	s.Locale = "fr"
	l, err := New(Options{Settings: s})
	if err != nil {
		t.Fatal(err)
	}
	msgs := l.CheckString("t.html", brokenPage)
	if len(msgs) == 0 {
		t.Fatal("no messages")
	}
	if msgs[0].Text != "le premier élément n'était pas la déclaration DOCTYPE" {
		t.Errorf("translated message = %q", msgs[0].Text)
	}
	// Untranslated messages fall back to English.
	found := false
	for _, m := range msgs {
		if strings.Contains(m.Text, "guillemets") {
			found = true
		}
	}
	if !found {
		t.Error("odd-quotes translation missing")
	}
}

func TestUnknownLocaleErrors(t *testing.T) {
	s := config.NewSettings()
	s.Locale = "xx"
	if _, err := New(Options{Settings: s}); err == nil {
		t.Error("unknown locale accepted")
	}
}

func TestCSSPluginThroughLinter(t *testing.T) {
	src := "<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE>" +
		"<META NAME=\"description\" CONTENT=\"d\"><META NAME=\"keywords\" CONTENT=\"k\">" +
		"<STYLE TYPE=\"text/css\">P { colour: red }</STYLE>" +
		"</HEAD><BODY><P>x</P></BODY></HTML>"
	l := MustNew(Options{})
	msgs := l.CheckString("s.html", src)
	found := false
	for _, m := range msgs {
		if m.ID == "style-unknown-property" {
			found = true
		}
	}
	if !found {
		t.Errorf("CSS plugin not engaged: %v", msgs)
	}
}

func TestLinterIsReusable(t *testing.T) {
	l := MustNew(Options{})
	a := l.CheckString("a.html", brokenPage)
	b := l.CheckString("b.html", brokenPage)
	if len(a) != len(b) {
		t.Errorf("reuse changed results: %d vs %d", len(a), len(b))
	}
	if b[0].File != "b.html" {
		t.Errorf("file = %q", b[0].File)
	}
}

func TestConcurrentChecks(t *testing.T) {
	l := MustNew(Options{})
	done := make(chan int, 8)
	for i := 0; i < 8; i++ {
		go func() {
			done <- len(l.CheckString("c.html", brokenPage))
		}()
	}
	for i := 0; i < 8; i++ {
		if n := <-done; n != 7 {
			t.Errorf("concurrent check returned %d messages", n)
		}
	}
}

// TestCoreOptionsWiring verifies settings reach the checker.
func TestCoreOptionsWiring(t *testing.T) {
	s := config.NewSettings()
	s.TitleLength = 5
	if err := s.Set.Enable("title-length"); err != nil {
		t.Fatal(err)
	}
	l := MustNew(Options{Settings: s})
	msgs := l.CheckString("t.html",
		"<!DOCTYPE HTML><HTML><HEAD><TITLE>much too long</TITLE></HEAD><BODY><P>x</P></BODY></HTML>")
	found := false
	for _, m := range msgs {
		if m.ID == "title-length" {
			found = true
		}
	}
	if !found {
		t.Errorf("title-length with custom limit not reported: %v", msgs)
	}
	_ = core.Options{} // package used for documentation of the wiring
}

// TestLinterExtensionIsolation verifies that two linters with
// different extensions enabled never observe each other's
// configuration — the cross-linter contamination hazard the shared
// memoized specs would otherwise introduce.
func TestLinterExtensionIsolation(t *testing.T) {
	mk := func(exts ...string) *Linter {
		s := config.NewSettings()
		s.Extensions = exts
		return MustNew(Options{Settings: s})
	}
	plain := mk()
	ns := mk("netscape")
	ms := mk("microsoft")

	const doc = "<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>" +
		"<BLINK>x</BLINK><MARQUEE>y</MARQUEE></BODY></HTML>"
	count := func(l *Linter) map[string]int {
		got := map[string]int{}
		for _, m := range l.CheckString("t.html", doc) {
			got[m.ID]++
		}
		return got
	}

	if got := count(ns); got["extension-markup"] != 1 {
		t.Errorf("netscape linter: want 1 extension-markup (MARQUEE), got %v", got)
	}
	if got := count(ms); got["extension-markup"] != 1 {
		t.Errorf("microsoft linter: want 1 extension-markup (BLINK), got %v", got)
	}
	// The plain linter must still report both, even after the other
	// two linters were built from the same shared spec.
	if got := count(plain); got["extension-markup"] != 2 {
		t.Errorf("plain linter: want 2 extension-markup, got %v", got)
	}
}

// TestPluginsSliceNotAliased verifies New copies the caller's plugin
// slice rather than appending the built-in CSS checker into its spare
// capacity, which would clobber the caller's backing array.
func TestPluginsSliceNotAliased(t *testing.T) {
	backing := make([]plugin.ContentChecker, 1, 2)
	backing[0] = csslint.Checker{}
	sentinel := backing[:2][1] // spare capacity, currently nil
	if sentinel != nil {
		t.Fatal("test setup: spare slot not nil")
	}
	MustNew(Options{Plugins: backing[:1]})
	if got := backing[:2][1]; got != nil {
		t.Errorf("New wrote %T into the caller's backing array", got)
	}
}

// TestInlineDirectiveDoesNotLeak verifies a document's "weblint:"
// directives affect only that check: the linter's shared warning set
// must not be mutated, so the next document sees defaults again.
func TestInlineDirectiveDoesNotLeak(t *testing.T) {
	l := MustNew(Options{})
	const silenced = "<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>" +
		"<!-- weblint: disable img-alt --><IMG SRC=\"x.gif\"></BODY></HTML>"
	const plain = "<!DOCTYPE HTML><HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>" +
		"<IMG SRC=\"x.gif\"></BODY></HTML>"
	for _, m := range l.CheckString("a.html", silenced) {
		if m.ID == "img-alt" {
			t.Error("inline disable ignored")
		}
	}
	found := false
	for _, m := range l.CheckString("b.html", plain) {
		if m.ID == "img-alt" {
			found = true
		}
	}
	if !found {
		t.Error("inline disable leaked into the next check")
	}
	if !l.Set().Enabled("img-alt") {
		t.Error("inline directive mutated the linter's shared set")
	}
}
