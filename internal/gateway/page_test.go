package gateway

// The html/template page the gateway executed before it appended its
// pages by hand. It is kept as the byte-for-byte reference that
// page.appendTo must match (TestPageMatchesTemplate, FuzzReportPage).

import (
	"fmt"
	"html"
	"html/template"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"weblint/internal/warn"
)

var pageTemplate = template.Must(template.New("page").Parse(`<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.0//EN">
<HTML>
<HEAD><TITLE>weblint gateway</TITLE>
<STYLE TYPE="text/css">
body { font-family: sans-serif; margin: 2em; }
li.error { color: #a00; }
li.warning { color: #850; }
li.style { color: #057; }
span.id { color: #888; font-size: smaller; }
pre.src { background: #f4f4f4; padding: 1em; }
p.err { color: #a00; font-weight: bold; }
</STYLE>
</HEAD>
<BODY>
<H1>weblint gateway</H1>
{{if .Error}}<P CLASS="err">{{.Error}}</P>{{end}}
{{if .Checked}}
<H2>Report for {{.Name}}</H2>
{{if .Items}}
<P>{{len .Items}} problem(s) found ({{.Summary}}):</P>
<UL>
{{range .Items}}{{.}}
{{end}}</UL>
{{else}}
<P>No problems found. Nice page!</P>
{{end}}
<H3>Checked source</H3>
<PRE CLASS="src">{{.Source}}</PRE>
<HR>
{{end}}
<FORM ACTION="" METHOD="post" ENCTYPE="multipart/form-data">
{{if .AllowURL}}<P>Check a page by URL:<BR>
<INPUT TYPE="text" NAME="url" SIZE="60"></P>{{end}}
<P>Or paste HTML:<BR>
<TEXTAREA NAME="html" ROWS="10" COLS="70"></TEXTAREA></P>
<P>Or upload a file:
<INPUT TYPE="file" NAME="upload"></P>
<P>Report format:
<SELECT NAME="format">
<OPTION VALUE="html" SELECTED>HTML report</OPTION>
<OPTION VALUE="json">JSON Lines</OPTION>
<OPTION VALUE="sarif">SARIF</OPTION>
<OPTION VALUE="baseline">Baseline (JSON)</OPTION>
<OPTION VALUE="fixed">Fixed document</OPTION>
</SELECT></P>
<P><INPUT TYPE="submit" VALUE="Check it"></P>
</FORM>
<P>weblint &#8212; syntax and style checker for HTML.</P>
</BODY>
</HTML>
`))

type pageData struct {
	Error    string
	Checked  bool
	Name     string
	Items    []template.HTML
	Summary  string
	Source   string
	AllowURL bool
}

// referencePage renders p through pageTemplate.
func referencePage(t testing.TB, p *page) string {
	t.Helper()
	items := make([]template.HTML, len(p.Items))
	for i, it := range p.Items {
		items[i] = template.HTML(it)
	}
	var sb strings.Builder
	if err := pageTemplate.Execute(&sb, pageData{
		Error: p.Error, Checked: p.Checked, Name: p.Name, Items: items,
		Summary: p.Summary, Source: p.Source, AllowURL: p.AllowURL,
	}); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// requireReferencePage fails unless p appends exactly what
// pageTemplate writes for it.
func requireReferencePage(t testing.TB, what string, p *page) {
	t.Helper()
	got := string(p.appendTo(nil))
	if want := referencePage(t, p); got != want {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%s: page differs from pageTemplate at byte %d:\n got %q\nwant %q",
			what, i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
}

// TestPageMatchesTemplate: the form, error and report pages the
// handler writes equal pageTemplate's, for a real report and for the
// edge cases of each section.
func TestPageMatchesTemplate(t *testing.T) {
	h := NewHandler(nil)
	msgs := h.Linter.CheckString("pasted HTML", brokenPage)
	items := make([]string, len(msgs))
	var sum warn.Summary
	for i, m := range msgs {
		items[i] = h.formatter().Format(m)
		sum.Add(m)
	}
	for _, tc := range []struct {
		name string
		p    page
	}{
		{"form", page{AllowURL: true}},
		{"form without URL field", page{}},
		{"error", page{Error: "document too large: this gateway checks documents up to 2097152 bytes", AllowURL: true}},
		{"report", page{Checked: true, Name: "pasted HTML", Items: items, Summary: sum.String(), Source: brokenPage, AllowURL: true}},
		{"clean report", page{Checked: true, Name: "http://example.org/a?b=1&c='2'", Source: "<P>ok</P>\n"}},
		{"report under an error", page{Error: `lint failed: "x" & <y>`, Checked: true, Name: "n", Items: []string{"<li>a</li>"}, Summary: "s", Source: "\x00+\xff"}},
	} {
		requireReferencePage(t, tc.name, &tc.p)
	}

	// The handler's own answers.
	get := httptest.NewRecorder()
	h.ServeHTTP(get, httptest.NewRequest(http.MethodGet, "/", nil))
	if want := referencePage(t, &page{AllowURL: true}); get.Body.String() != want {
		t.Errorf("GET form page differs from pageTemplate:\n%s", get.Body.String())
	}
	post := postValues(h, url.Values{"html": {brokenPage}})
	want := referencePage(t, &page{Checked: true, Name: "pasted HTML", Items: sortedItems(h, msgs), Summary: sum.String(), Source: brokenPage, AllowURL: true})
	if post.Body.String() != want {
		t.Errorf("report page differs from pageTemplate:\n%s", post.Body.String())
	}
}

// TestHTMLFormatterMatchesSprintf: HTMLFormatter writes each item as
// the fmt.Sprintf it used to call did, for every category, line and
// escaping case.
func TestHTMLFormatterMatchesSprintf(t *testing.T) {
	for _, m := range []warn.Message{
		{ID: "heading-mismatch", Category: warn.Error, Line: 1, Text: "malformed heading - open tag is <H1>, but closing is </H2>"},
		{ID: "img-alt", Category: warn.Warning, Line: 123456, Text: `IMG "x" & 'y'`},
		{ID: "physical-font", Category: warn.Style, Line: 0, Text: "\x00\xff+"},
		{ID: "", Category: warn.Category(7), Line: -3, Text: ""},
	} {
		want := fmt.Sprintf(`<li class="%s">line %d: %s <span class="id">[%s]</span></li>`,
			m.Category, m.Line, html.EscapeString(m.Text), m.ID)
		if got := (HTMLFormatter{}).Format(m); got != want {
			t.Errorf("Format(%+v)\n got %s\nwant %s", m, got, want)
		}
	}
}

// sortedItems formats msgs in the report's order, by line.
func sortedItems(h *Handler, msgs []warn.Message) []string {
	msgs = append([]warn.Message(nil), msgs...)
	warn.SortByLine(msgs)
	items := make([]string, len(msgs))
	for i, m := range msgs {
		items[i] = h.formatter().Format(m)
	}
	return items
}

// FuzzReportPage: for any error, name, summary, source, items and
// URL-field setting, the appended page equals pageTemplate's. The
// escaped fields carry NUL, invalid UTF-8, '+', quotes and markup in
// the seeds; the items are trusted HTML and pass through verbatim.
func FuzzReportPage(f *testing.F) {
	f.Add("", "pasted HTML", "1 error, 0 warnings, 0 style", "<P>x</P>", `<li class="error">line 1: x</li>`, uint8(1), true, true)
	f.Add("no HTML provided: enter a URL, paste HTML, or upload a file", "", "", "", "", uint8(0), false, true)
	f.Add("bad \x00 nul", "a\x00b", "\x00", "\x00\x00", "\x00", uint8(2), true, false)
	f.Add("\xff\xfe\xc3(", "\xe2\x82", "\xed\xa0\x80", "\xf0\x9f\x98\x80 \xf0\x9f", "\xff", uint8(3), true, true)
	f.Add(`"q" 'a' a+b <b>&amp;`, `C:\site\<a>&+"'.html`, `+ & " ' < >`, `<A HREF="x+y">'t' &amp; &#43;</A>`, `<li>"&+</li>`, uint8(4), true, false)
	f.Add("\uFFFD\u2028\uFDD0\uFFFF", "\r\n\t", "\x7f", "line\r\nline\rline\n", "\n", uint8(5), false, false)
	f.Fuzz(func(t *testing.T, errMsg, name, summary, source, item string, nItems uint8, checked, allowURL bool) {
		var items []string
		for i := range int(nItems % 6) {
			items = append(items, item+strconv.Itoa(i))
		}
		requireReferencePage(t, "fuzzed page", &page{
			Error: errMsg, Checked: checked, Name: name, Items: items,
			Summary: summary, Source: source, AllowURL: allowURL,
		})
	})
}
