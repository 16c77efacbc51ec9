package core

import (
	"strings"

	"weblint/internal/ascii"
	"weblint/internal/htmltoken"
)

// Syms of the element and attribute names the checks test for. They
// are fixed once the package is initialised.
var (
	symA        = htmltoken.SymOf("a")
	symB        = htmltoken.SymOf("b")
	symBody     = htmltoken.SymOf("body")
	symForm     = htmltoken.SymOf("form")
	symFrameset = htmltoken.SymOf("frameset")
	symHead     = htmltoken.SymOf("head")
	symHTML     = htmltoken.SymOf("html")
	symI        = htmltoken.SymOf("i")
	symImg      = htmltoken.SymOf("img")
	symMeta     = htmltoken.SymOf("meta")
	symNoframes = htmltoken.SymOf("noframes")
	symNoscript = htmltoken.SymOf("noscript")
	symScript   = htmltoken.SymOf("script")
	symTitle    = htmltoken.SymOf("title")
	symTT       = htmltoken.SymOf("tt")

	symAlt    = htmltoken.SymOf("alt")
	symHeight = htmltoken.SymOf("height")
	symID     = htmltoken.SymOf("id")
	symName   = htmltoken.SymOf("name")
	symWidth  = htmltoken.SymOf("width")
)

// defaultTitleLength is the TITLE length beyond which title-length
// warns; many browsers of the era displayed at most about 64
// characters of title.
const defaultTitleLength = 64

// hereWords is the built-in list of content-free anchor texts checked
// by here-anchor; it can be extended through Options.HereWords (and
// the "add here-words" configuration directive).
var hereWords = map[string]bool{
	"here":       true,
	"click here": true,
	"click":      true,
	"this":       true,
	"this link":  true,
	"link":       true,
	"more":       true,
	"read more":  true,
	"click this": true,
	"go":         true,
}

// physicalToLogical returns the logical markup the physical-font style
// check suggests for physical font markup, or "" for any other element.
func physicalToLogical(sym htmltoken.Sym) string {
	switch sym {
	case symB:
		return "STRONG"
	case symI:
		return "EM"
	case symTT:
		return "CODE"
	}
	return ""
}

// knownSchemes are the URL schemes in common use when a link's scheme
// is checked; anything else is most likely a typo.
var knownSchemes = map[string]bool{
	"http":       true,
	"https":      true,
	"ftp":        true,
	"mailto":     true,
	"news":       true,
	"nntp":       true,
	"telnet":     true,
	"gopher":     true,
	"wais":       true,
	"file":       true,
	"javascript": true,
}

// badScheme extracts the scheme from a URL-valued attribute and
// reports whether it is suspicious. Relative URLs have no scheme and
// are never suspicious.
func badScheme(u string) (scheme string, bad bool) {
	i := strings.IndexByte(u, ':')
	if i <= 0 {
		return "", false
	}
	s := u[:i]
	for j := 0; j < len(s); j++ {
		c := s[j]
		ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.'
		if !ok || (j == 0 && !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z')) {
			return "", false // not a scheme at all (e.g. a path with ':')
		}
	}
	if knownSchemes[ascii.ToLower(s)] {
		return s, false
	}
	return s, true
}

// headingLevel returns 1-6 for h1..h6 and 0 otherwise.
func headingLevel(name string) int {
	if len(name) == 2 && name[0] == 'h' && name[1] >= '1' && name[1] <= '6' {
		return int(name[1] - '0')
	}
	return 0
}

// contextList renders an element's legal-context list for messages,
// e.g. "UL, OL, DIR or MENU".
func contextList(ctx []htmltoken.Sym) string {
	upper := make([]string, len(ctx))
	for i, c := range ctx {
		upper[i] = strings.ToUpper(htmltoken.SymName(c))
	}
	switch len(upper) {
	case 0:
		return ""
	case 1:
		return upper[0]
	default:
		return strings.Join(upper[:len(upper)-1], ", ") + " or " + upper[len(upper)-1]
	}
}

// isNameTokenValue reports whether an unquoted attribute value is a
// legal SGML name token (letters, digits, periods and hyphens); any
// other unquoted value should be quoted.
func isNameTokenValue(v string) bool {
	if v == "" {
		return false
	}
	for i := 0; i < len(v); i++ {
		c := v[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '.':
		default:
			return false
		}
	}
	return true
}
