// Package linkcheck implements hyperlink extraction and validation:
// the "broken link" class of checks from the paper's Sections 3.5 and
// 4.5. Scan extracts a document's links and anchors; local links are
// resolved against the filesystem. A remote link is validated by
// CheckOne, which sends a HEAD request (a GET when the server rejects
// HEAD) through one hardened fetch.Client carrying poacher's
// User-Agent, follows redirects, and reports a URL which results in a
// failure response code. CheckOne checks one URL on the calling
// goroutine: poacher probes a crawl's off-site links by running it on
// engine.OrderedSlice, the repo's one ordered fan-out.
package linkcheck

import (
	"strings"

	"weblint/internal/htmltoken"
)

// Link is one outbound reference found in a document.
type Link struct {
	// URL is the raw attribute value.
	URL string
	// Line is the 1-based source line the link appears on.
	Line int
	// Element and Attr identify where the link was found
	// (lower-case), e.g. "a"/"href" or "img"/"src".
	Element, Attr string
}

// linkElem maps any case-folded element name in linkAttrs to a
// canonical string constant, so Link.Element never aliases the
// scanned document (tok.Lower is a source substring for lower-case
// markup — see Scan's no-aliasing contract).
var linkElem = func() map[string]string {
	m := make(map[string]string, len(linkAttrs))
	for name := range linkAttrs {
		m[name] = name
	}
	return m
}()

// linkAttrs maps element names to the attributes which hold URLs.
var linkAttrs = map[string][]string{
	"a":          {"href"},
	"area":       {"href"},
	"link":       {"href"},
	"base":       {"href"},
	"img":        {"src", "lowsrc", "usemap", "longdesc"},
	"frame":      {"src", "longdesc"},
	"iframe":     {"src", "longdesc"},
	"script":     {"src"},
	"input":      {"src"},
	"body":       {"background"},
	"table":      {"background"},
	"td":         {"background"},
	"th":         {"background"},
	"embed":      {"src"},
	"bgsound":    {"src"},
	"object":     {"data", "codebase"},
	"applet":     {"codebase"},
	"form":       {"action"},
	"q":          {"cite"},
	"blockquote": {"cite"},
	"ins":        {"cite"},
	"del":        {"cite"},
}

// Scan extracts the outbound links and the defined fragment anchors
// (<A NAME=...> and ID attributes) of a document in one tokenizer
// pass. The seed walked the token stream once per question; the site
// walker asks both, so Scan answers both.
//
// Nothing in the result aliases src: every URL and anchor name is
// copied out, so the caller may drop or recycle the source the moment
// Scan returns. That property is what keeps a large site walk's
// memory flat — the link graph retains kilobytes of extracted
// strings, not every page's full text.
func Scan(src string) (links []Link, anchors map[string]bool) {
	anchors = map[string]bool{}
	tz := htmltoken.New(src)
	var tok htmltoken.Token
	for tz.NextInto(&tok) {
		if tok.Type != htmltoken.StartTag {
			continue
		}
		if tok.Lower == "a" {
			if at := tok.Attr("name"); at != nil && at.HasValue {
				anchors[strings.Clone(at.Value)] = true
			}
		}
		if at := tok.Attr("id"); at != nil && at.HasValue {
			anchors[strings.Clone(at.Value)] = true
		}
		if tok.OddQuotes {
			continue
		}
		attrs, ok := linkAttrs[tok.Lower]
		if !ok {
			continue
		}
		for _, name := range attrs {
			if at := tok.Attr(name); at != nil && at.HasValue && at.Value != "" {
				links = append(links, Link{
					URL:     strings.Clone(at.Value),
					Line:    at.Line,
					Element: linkElem[tok.Lower],
					Attr:    name,
				})
			}
		}
	}
	return links, anchors
}

// IsExternal reports whether a link leaves the local filesystem: it
// has a URL scheme or is protocol-relative.
func IsExternal(url string) bool {
	if strings.HasPrefix(url, "//") {
		return true
	}
	i := strings.IndexByte(url, ':')
	if i <= 0 {
		return false
	}
	for j := 0; j < i; j++ {
		c := url[j]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.'
		if !ok {
			return false
		}
	}
	return true
}

// SplitFragment splits a URL into its document part and fragment.
func SplitFragment(url string) (doc, frag string) {
	if i := strings.IndexByte(url, '#'); i >= 0 {
		return url[:i], url[i+1:]
	}
	return url, ""
}

// StripQuery removes a query string from a URL path.
func StripQuery(url string) string {
	if i := strings.IndexByte(url, '?'); i >= 0 {
		return url[:i]
	}
	return url
}
