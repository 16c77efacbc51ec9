package htmltoken

import "weblint/internal/ascii"

// Tag and attribute name symbols.
//
// The element and attribute names of every HTML version weblint knows
// form a closed vocabulary, so each has a Sym: a small dense integer
// the tokenizer hands out on every tag and attribute, and which the
// spec tables and the checker's per-element indexes use as a slice
// index instead of hashing the name. Names outside the vocabulary get
// NoSym and keep their string, which the few name-keyed paths left
// (unknown elements and attributes) use instead.

// Sym identifies a known element or attribute name. NoSym stands for
// every name outside the vocabulary.
type Sym uint16

// NoSym is the Sym of every name outside the vocabulary.
const NoSym Sym = 0

// maxInternLen is the longest name the stack-buffer fold handles; the
// longest vocabulary name ("bordercolorlight") is 16 bytes. A longer
// name is never in the vocabulary.
const maxInternLen = 16

// internNames lists the element names of every HTML version weblint
// knows (2.0, 3.2, 4.0, Netscape and Microsoft extensions) and the
// attribute names that appear on them. It is the Sym vocabulary: the
// n-th distinct name is Sym n (a name listed twice, as element and as
// attribute, keeps its first Sym). htmlspec's TestEverySpecNameHasSym
// fails when a spec table uses a name missing here.
var internNames = []string{
	// Elements.
	"a", "abbr", "acronym", "address", "applet", "area", "b", "base",
	"basefont", "bdo", "bgsound", "big", "blink", "blockquote", "body",
	"br", "button", "caption", "center", "cite", "code", "col",
	"colgroup", "comment", "dd", "del", "dfn", "dir", "div", "dl",
	"dt", "em", "embed", "fieldset", "font", "form", "frame",
	"frameset", "h1", "h2", "h3", "h4", "h5", "h6", "head", "hr",
	"html", "i", "iframe", "ilayer", "img", "input", "ins", "isindex",
	"kbd", "keygen", "label", "layer", "legend", "li", "link",
	"listing", "map", "marquee", "menu", "meta", "multicol", "nextid",
	"nobr", "noembed", "noframes", "nolayer", "noscript", "object",
	"ol", "optgroup", "option", "p", "param", "plaintext", "pre", "q",
	"s", "samp", "script", "select", "server", "small", "spacer",
	"span", "strike", "strong", "style", "sub", "sup", "table",
	"tbody", "td", "textarea", "tfoot", "th", "thead", "title", "tr",
	"tt", "u", "ul", "var", "wbr", "xmp",
	// Attributes.
	"abbr", "accept", "accept-charset", "accesskey", "action", "align",
	"alink", "alt", "archive", "autostart", "axis", "background", "balance",
	"behavior", "bgcolor", "bgproperties", "border", "bordercolor",
	"bordercolordark", "bordercolorlight", "bottommargin", "cellpadding",
	"cellspacing", "challenge", "char", "charoff", "charset", "checked",
	"cite", "class", "classid", "clear", "code", "codebase", "codetype",
	"color", "cols", "colspan", "compact", "content", "coords", "data",
	"datetime", "declare", "defer", "dir", "direction", "disabled",
	"dynsrc", "enctype", "event", "face", "for", "frame",
	"frameborder", "gutter", "headers", "height", "hidden", "href", "hreflang",
	"hspace", "http-equiv", "id", "ismap", "label", "lang", "language",
	"left", "leftmargin", "link", "longdesc", "loop", "lowsrc",
	"marginheight", "marginwidth", "maxlength", "media", "method",
	"methods", "multiple", "n", "name", "nohref", "noresize",
	"noshade", "nowrap", "object", "onblur", "onchange", "onclick",
	"ondblclick", "onfocus", "onkeydown", "onkeypress", "onkeyup",
	"onload", "onmousedown", "onmousemove", "onmouseout",
	"onmouseover", "onmouseup", "onreset", "onselect", "onsubmit",
	"onunload", "palette", "pluginspage", "profile", "prompt",
	"readonly", "rel", "rev", "rightmargin", "rows", "rowspan",
	"rules", "scheme", "scope", "scrollamount", "scrolldelay",
	"scrolling", "selected", "shape", "size", "span", "src",
	"standby", "start", "style", "summary", "tabindex", "target",
	"text", "title", "top", "topmargin", "truespeed", "type", "urn",
	"usemap", "valign", "value", "valuetype", "version", "visibility",
	"vlink", "volume", "vspace", "width", "z-index",
}

// symNames[s] is the canonical lower-case name of Sym s; symNames[0]
// (NoSym) is empty. internTable is its inverse, the one name→Sym map.
var symNames, internTable = func() ([]string, map[string]Sym) {
	names := []string{""}
	m := make(map[string]Sym, len(internNames))
	for _, n := range internNames {
		if _, dup := m[n]; !dup {
			m[n] = Sym(len(names))
			names = append(names, n)
		}
	}
	return names, m
}()

// NumSyms returns the number of Syms, NoSym included: every Sym is
// below it, so a table indexed by Sym has NumSyms entries.
func NumSyms() int { return len(symNames) }

// SymName returns the canonical lower-case name of s, or "" for NoSym.
func SymName(s Sym) string { return symNames[s] }

// SymOf returns the Sym of name, case-insensitively, or NoSym when the
// name is outside the vocabulary. It never allocates.
func SymOf(name string) Sym {
	if len(name) > maxInternLen {
		return NoSym
	}
	var buf [maxInternLen]byte
	return internTable[string(ascii.AppendLower(buf[:0], name))]
}

// lookupName resolves a name of any case to its lower-case form and
// Sym: a known name to the vocabulary's canonical string, an unknown
// one to ascii.ToLower(s) — s itself when already lower-case, else a
// fresh copy. It is the tokenizer's cache-free path.
func lookupName(s string) (string, Sym) {
	if sym := SymOf(s); sym != NoSym {
		return symNames[sym], sym
	}
	return ascii.ToLower(s), NoSym
}
