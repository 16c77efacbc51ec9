package gateway

import (
	"bytes"
	"net/http"
	"strconv"

	"weblint/internal/bufpool"
)

// page.go writes the gateway's one page: an error line, a report, or
// both, above the submission form. The page is appended by hand into a
// pooled buffer and written in one call; the bytes are exactly those
// html/template writes for the same page (pageTemplate, kept in the
// tests as the reference).

// page is what one response page shows.
type page struct {
	// Error, when set, is shown above everything else.
	Error string
	// Checked adds the report: Name, the findings (Items, each a
	// trusted HTML list item from the Formatter, and their Summary)
	// and the checked Source.
	Checked bool
	Name    string
	Items   []string
	Summary string
	Source  string
	// AllowURL offers the check-by-URL field in the form.
	AllowURL bool
}

const (
	pageHead = `<!DOCTYPE HTML PUBLIC "-//W3C//DTD HTML 4.0//EN">
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
`
	pageFormHead = `
<FORM ACTION="" METHOD="post" ENCTYPE="multipart/form-data">
`
	pageURLField = `<P>Check a page by URL:<BR>
<INPUT TYPE="text" NAME="url" SIZE="60"></P>`
	pageFormTail = `
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
`
)

// appendTo appends the page to b.
func (p *page) appendTo(b []byte) []byte {
	b = append(b, pageHead...)
	if p.Error != "" {
		b = append(b, `<P CLASS="err">`...)
		b = append(appendEscaped(b, p.Error), "</P>"...)
	}
	b = append(b, '\n')
	if p.Checked {
		b = append(b, "\n<H2>Report for "...)
		b = append(appendEscaped(b, p.Name), "</H2>\n"...)
		if len(p.Items) > 0 {
			b = append(b, "\n<P>"...)
			b = strconv.AppendInt(b, int64(len(p.Items)), 10)
			b = append(b, " problem(s) found ("...)
			b = append(appendEscaped(b, p.Summary), "):</P>\n<UL>\n"...)
			for _, it := range p.Items {
				b = append(append(b, it...), '\n')
			}
			b = append(b, "</UL>\n"...)
		} else {
			b = append(b, "\n<P>No problems found. Nice page!</P>\n"...)
		}
		b = append(b, "\n<H3>Checked source</H3>\n<PRE CLASS=\"src\">"...)
		b = append(appendEscaped(b, p.Source), "</PRE>\n<HR>\n"...)
	}
	b = append(b, pageFormHead...)
	if p.AllowURL {
		b = append(b, pageURLField...)
	}
	return append(b, pageFormTail...)
}

// htmlEscapes maps each byte html/template rewrites in a text node to
// its replacement: NUL becomes U+FFFD, and the quotes, '&', '+', '<'
// and '>' become character references. Every other byte, invalid
// UTF-8 included, is copied.
var htmlEscapes = [256]string{
	0:    "\uFFFD",
	'"':  "&#34;",
	'&':  "&amp;",
	'\'': "&#39;",
	'+':  "&#43;",
	'<':  "&lt;",
	'>':  "&gt;",
}

// appendEscaped appends s escaped for an HTML text node, byte for byte
// as html/template escapes it.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if esc := htmlEscapes[s[i]]; esc != "" {
			b = append(append(b, s[start:i]...), esc...)
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}

// writePage answers with p: status, unless it is 0 (200), and the page,
// appended into a pooled buffer and written in one call.
func writePage(w http.ResponseWriter, status int, p *page) {
	buf := bufpool.Get()
	b := p.appendTo(buf.AvailableBuffer())
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if status != 0 {
		w.WriteHeader(status)
	}
	_, _ = w.Write(b)
	// The buffer keeps whatever the page grew it to, for the next one.
	*buf = *bytes.NewBuffer(b[:0])
	bufpool.Put(buf)
}
