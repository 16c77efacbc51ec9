package htmlspec

import (
	"strings"
	"testing"

	"weblint/internal/htmltoken"
)

func TestHTML40ElementCoverage(t *testing.T) {
	s := HTML40()
	// The HTML 4.0 spec defines 91 elements; plus our tagged vendor
	// extensions the table must be comfortably above that.
	standard := 0
	for _, e := range s.Elements {
		if e.Extension == "" {
			standard++
		}
	}
	if standard < 85 {
		t.Errorf("HTML 4.0 standard element count = %d, want >= 85", standard)
	}
	for _, name := range []string{
		"html", "head", "body", "title", "a", "img", "table", "form",
		"input", "textarea", "frameset", "object", "abbr", "fieldset",
	} {
		if s.Element(name) == nil {
			t.Errorf("HTML 4.0 missing element %s", name)
		}
	}
}

func TestElementLookupCaseInsensitive(t *testing.T) {
	s := HTML40()
	if s.Element("IMG") == nil || s.Element("Img") == nil || s.Element("img") == nil {
		t.Error("case-insensitive element lookup failed")
	}
	if s.Element("nosuch") != nil {
		t.Error("unknown element resolved")
	}
}

func TestEmptyElements(t *testing.T) {
	s := HTML40()
	for _, name := range []string{"br", "img", "hr", "input", "meta", "link", "base", "area", "param", "col", "frame", "isindex", "basefont"} {
		e := s.Element(name)
		if e == nil || !e.Empty {
			t.Errorf("%s should be an empty element", name)
		}
	}
	for _, name := range []string{"a", "p", "title", "td", "div"} {
		if s.Element(name).Empty {
			t.Errorf("%s should not be empty", name)
		}
	}
}

func TestOmitCloseElements(t *testing.T) {
	s := HTML40()
	for _, name := range []string{"p", "li", "dt", "dd", "td", "th", "tr", "option", "thead", "tbody", "html", "head", "body"} {
		e := s.Element(name)
		if e == nil || !e.OmitClose {
			t.Errorf("%s close tag should be omissible", name)
		}
	}
	for _, name := range []string{"a", "title", "table", "div", "em", "textarea"} {
		if s.Element(name).OmitClose {
			t.Errorf("%s close tag should be required", name)
		}
	}
}

func TestInlineVsStructural(t *testing.T) {
	s := HTML40()
	for _, name := range []string{"b", "i", "em", "strong", "a", "font", "span", "tt"} {
		if !s.Element(name).Inline {
			t.Errorf("%s should be inline", name)
		}
	}
	for _, name := range []string{"html", "head", "body", "table", "ul", "form", "div", "h1"} {
		e := s.Element(name)
		if e.Inline || !e.Structural {
			t.Errorf("%s should be structural, not inline", name)
		}
	}
}

func TestRequiredAttrs(t *testing.T) {
	s := HTML40()
	cases := map[string][]string{
		"textarea": {"cols", "rows"},
		"img":      {"src"},
		"form":     {"action"},
		"map":      {"name"},
		"area":     {"alt"},
		"applet":   {"height", "width"},
		"style":    {"type"},
		"script":   {"type"},
		"meta":     {"content"},
		"bdo":      {"dir"},
		"optgroup": {"label"},
	}
	for name, want := range cases {
		got := s.Element(name).RequiredAttrs()
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s required attrs = %v, want %v", name, got, want)
		}
	}
	if len(s.Element("p").RequiredAttrs()) != 0 {
		t.Error("p has required attrs")
	}
}

func TestContextTables(t *testing.T) {
	s := HTML40()
	cases := map[string][]string{
		"li":     {"ul", "ol", "dir", "menu"},
		"td":     {"tr"},
		"tr":     {"table", "thead", "tbody", "tfoot"},
		"dt":     {"dl"},
		"area":   {"map"},
		"frame":  {"frameset"},
		"legend": {"fieldset"},
		"option": {"select", "optgroup"},
		"param":  {"applet", "object"},
	}
	for name, want := range cases {
		e := s.Element(name)
		for _, p := range want {
			if !e.InContext(htmltoken.SymOf(p)) {
				t.Errorf("%s should be legal in %s", name, p)
			}
		}
		if e.InContext(htmltoken.SymOf("body")) || e.InContext(htmltoken.NoSym) {
			t.Errorf("%s should not be legal directly in body or at the top", name)
		}
	}
	// Unconstrained elements accept any context.
	p := s.Element("p")
	if !p.InContext(htmltoken.SymOf("body")) || !p.InContext(htmltoken.SymOf("td")) || !p.InContext(htmltoken.NoSym) {
		t.Error("p should be context-unconstrained")
	}
}

func TestImpliedEnd(t *testing.T) {
	s := HTML40()
	endedBy := func(name, other string) bool {
		return s.Element(name).ImpliedEndedBy(htmltoken.SymOf(other))
	}
	if !endedBy("li", "li") {
		t.Error("li should imply end of li")
	}
	if !endedBy("p", "table") || !endedBy("p", "h1") {
		t.Error("block elements should imply end of p")
	}
	if endedBy("p", "b") || s.Element("p").ImpliedEndedBy(htmltoken.NoSym) {
		t.Error("inline and unknown elements must not imply end of p")
	}
	if !endedBy("dt", "dd") || !endedBy("dd", "dt") {
		t.Error("dt/dd should imply each other's end")
	}
	if !endedBy("head", "body") {
		t.Error("body should imply end of head")
	}
}

func TestDeprecatedAndObsolete(t *testing.T) {
	s := HTML40()
	for _, name := range []string{"center", "font", "u", "strike", "dir", "menu", "applet", "isindex", "basefont"} {
		e := s.Element(name)
		if !e.Deprecated || e.Replacement == "" {
			t.Errorf("%s should be deprecated with a replacement", name)
		}
	}
	for _, name := range []string{"xmp", "listing", "plaintext"} {
		e := s.Element(name)
		if !e.Obsolete || e.Replacement != "<PRE>" {
			t.Errorf("%s should be obsolete with <PRE> replacement", name)
		}
	}
	if s.Element("em").Deprecated {
		t.Error("em should not be deprecated")
	}
}

func TestVendorExtensions(t *testing.T) {
	s := HTML40()
	ns := map[string]bool{"blink": true, "nobr": true, "embed": true, "layer": true, "multicol": true, "spacer": true, "keygen": true, "wbr": true}
	ms := map[string]bool{"marquee": true, "bgsound": true, "comment": true}
	for name := range ns {
		e := s.Element(name)
		if e == nil || e.Extension != VendorNetscape {
			t.Errorf("%s should be a Netscape extension", name)
		}
	}
	for name := range ms {
		e := s.Element(name)
		if e == nil || e.Extension != VendorMicrosoft {
			t.Errorf("%s should be a Microsoft extension", name)
		}
	}
	// Extension attributes on standard elements.
	if a := s.Element("img").Attr("lowsrc"); a == nil || a.Extension != VendorNetscape {
		t.Error("IMG LOWSRC should be a Netscape extension attribute")
	}
	if a := s.Element("body").Attr("leftmargin"); a == nil || a.Extension != VendorMicrosoft {
		t.Error("BODY LEFTMARGIN should be a Microsoft extension attribute")
	}
}

func TestWithExtensions(t *testing.T) {
	s := HTML40()
	if s.ExtensionEnabled("netscape") {
		t.Error("extension enabled by default")
	}
	e := s.WithExtensions("Netscape")
	if !e.ExtensionEnabled("netscape") || !e.ExtensionEnabled("NETSCAPE") {
		t.Error("extension enablement not case-insensitive")
	}
	if s.ExtensionEnabled("netscape") {
		t.Error("WithExtensions mutated the shared base spec")
	}
	if e.Elements["img"] != s.Elements["img"] {
		t.Error("WithExtensions should share element tables, not copy them")
	}
	// Overlays accumulate without touching their parent.
	both := e.WithExtensions("Microsoft")
	if !both.ExtensionEnabled("netscape") || !both.ExtensionEnabled("microsoft") {
		t.Error("extension sets should accumulate")
	}
	if e.ExtensionEnabled("microsoft") {
		t.Error("derived overlay mutated its parent")
	}
}

func TestMemoizedSpecsShared(t *testing.T) {
	if HTML40() != HTML40() || HTML32() != HTML32() || HTML20() != HTML20() {
		t.Error("version constructors should return the shared memoized spec")
	}
	if Default() != HTML40() {
		t.Error("Default should be the shared HTML 4.0 spec")
	}
	if v, ok := ByVersion("3.2"); !ok || v != HTML32() {
		t.Error("ByVersion should return the shared memoized spec")
	}
}

func TestSharedSpecIsolation(t *testing.T) {
	// Two overlays over the same memoized base must not see each
	// other's extensions — the cross-linter contamination bug that
	// spec sharing would otherwise introduce.
	ns := HTML40().WithExtensions("netscape")
	ms := HTML40().WithExtensions("microsoft")
	if ns.ExtensionEnabled("microsoft") || ms.ExtensionEnabled("netscape") {
		t.Error("extension overlays leaked across derived specs")
	}
	if HTML40().ExtensionEnabled("netscape") || HTML40().ExtensionEnabled("microsoft") {
		t.Error("extension overlays leaked into the shared base spec")
	}
	// The shared element tables are visible through every overlay.
	if ns.Element("marquee") == nil || ms.Element("blink") == nil {
		t.Error("overlay should expose all vendor-tagged elements")
	}
}

func TestHTML32Differences(t *testing.T) {
	s32 := HTML32()
	s40 := HTML40()
	// 4.0-only elements absent from 3.2.
	for _, name := range []string{"span", "abbr", "acronym", "iframe", "frameset", "object", "fieldset", "button", "ins", "del", "q", "colgroup", "tbody"} {
		if s32.Element(name) != nil {
			t.Errorf("HTML 3.2 should not define %s", name)
		}
		if s40.Element(name) == nil {
			t.Errorf("HTML 4.0 should define %s", name)
		}
	}
	// CLASS/STYLE attributes and events are 4.0-only.
	if s32.Element("p").Attr("class") != nil {
		t.Error("HTML 3.2 P should not have CLASS")
	}
	if s40.Element("p").Attr("class") == nil {
		t.Error("HTML 4.0 P should have CLASS")
	}
	if s32.Element("a").Attr("onclick") != nil {
		t.Error("HTML 3.2 A should not have ONCLICK")
	}
	// CENTER is not deprecated in 3.2 but is in 4.0.
	if s32.Element("center").Deprecated {
		t.Error("CENTER deprecated in 3.2")
	}
	if !s40.Element("center").Deprecated {
		t.Error("CENTER not deprecated in 4.0")
	}
}

func TestHTML20Differences(t *testing.T) {
	s20 := HTML20()
	// No tables, no FONT, no stylistic 3.2 additions.
	for _, name := range []string{"table", "tr", "td", "font", "center", "div", "sub", "sup", "applet", "map", "area", "script", "style"} {
		if s20.Element(name) != nil {
			t.Errorf("HTML 2.0 should not define %s", name)
		}
	}
	// The 2.0 core is present.
	for _, name := range []string{"html", "title", "a", "img", "form", "input", "pre", "blockquote", "nextid"} {
		if s20.Element(name) == nil {
			t.Errorf("HTML 2.0 missing %s", name)
		}
	}
	// 2.0 requires SELECT NAME and TEXTAREA NAME.
	if got := strings.Join(s20.Element("select").RequiredAttrs(), ","); got != "name" {
		t.Errorf("SELECT required = %s", got)
	}
	if got := strings.Join(s20.Element("textarea").RequiredAttrs(), ","); got != "cols,name,rows" {
		t.Errorf("TEXTAREA required = %s", got)
	}
	// IMG align in 2.0 has no left/right.
	if s20.Element("img").Attr("align").ValidValue("left") {
		t.Error("IMG ALIGN=left accepted under 2.0")
	}
}

func TestByVersion(t *testing.T) {
	for _, v := range []string{"4.0", "4", "HTML4.0", "html 4.0"} {
		s, ok := ByVersion(v)
		if !ok || s.Version != "HTML 4.0" {
			t.Errorf("ByVersion(%q) = %v, %v", v, s, ok)
		}
	}
	if s, ok := ByVersion("3.2"); !ok || s.Version != "HTML 3.2" {
		t.Error("ByVersion(3.2) failed")
	}
	if s, ok := ByVersion("2.0"); !ok || s.Version != "HTML 2.0" {
		t.Error("ByVersion(2.0) failed")
	}
	if _, ok := ByVersion("5.0"); ok {
		t.Error("ByVersion accepted 5.0")
	}
	if Default().Version != "HTML 4.0" {
		t.Error("default spec is not HTML 4.0")
	}
}

func TestValidColor(t *testing.T) {
	good := []string{"#ff0000", "#FF00aa", "red", "NAVY", "Teal", "#123456"}
	bad := []string{"fffff", "#fffff", "#gggggg", "reddish", "", "#1234567", "ff0000"}
	for _, c := range good {
		if !ValidColor(c) {
			t.Errorf("ValidColor(%q) = false", c)
		}
	}
	for _, c := range bad {
		if ValidColor(c) {
			t.Errorf("ValidColor(%q) = true", c)
		}
	}
}

func TestAttrValueValidation(t *testing.T) {
	num := AttrInfo{Name: "n", Type: Number}
	if !num.ValidValue("42") || num.ValidValue("4x") || num.ValidValue("") {
		t.Error("Number validation wrong")
	}
	length := AttrInfo{Name: "l", Type: Length}
	for _, v := range []string{"10", "50%", "3*", "*"} {
		if !length.ValidValue(v) {
			t.Errorf("Length rejected %q", v)
		}
	}
	for _, v := range []string{"", "x", "%", "10px"} {
		if length.ValidValue(v) {
			t.Errorf("Length accepted %q", v)
		}
	}
	enum := AttrInfo{Name: "e", Type: Enum, Values: []string{"get", "post"}}
	if !enum.ValidValue("GET") || !enum.ValidValue("post") || enum.ValidValue("put") {
		t.Error("Enum validation wrong")
	}
	nt := AttrInfo{Name: "t", Type: NameToken}
	if !nt.ValidValue("foo-1.x") || nt.ValidValue("a b") || nt.ValidValue("") {
		t.Error("NameToken validation wrong")
	}
	any := AttrInfo{Name: "a", Type: CDATA}
	if !any.ValidValue("") || !any.ValidValue("anything at all") {
		t.Error("CDATA validation wrong")
	}
	u := AttrInfo{Name: "u", Type: URL}
	if !u.ValidValue("http://x/") {
		t.Error("URL validation wrong")
	}
}

func TestElementNamesSorted(t *testing.T) {
	names := HTML40().ElementNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted at %d: %s >= %s", i, names[i-1], names[i])
		}
	}
}

// TestEverySpecNameHasSym: every element and attribute name of every
// version table, vendor extensions included, is in the htmltoken
// vocabulary, so the checker resolves it by Sym and never through the
// name-keyed fallback meant for unknown names. The tables are read
// unfinalized: finalize would panic on a missing name instead of
// listing them all.
func TestEverySpecNameHasSym(t *testing.T) {
	for ver, build := range map[string]func() *Spec{"2.0": buildHTML20, "3.2": buildHTML32, "4.0": buildHTML40} {
		for name, e := range build().Elements {
			if htmltoken.SymOf(name) == htmltoken.NoSym {
				t.Errorf("%s: element %q has no Sym", ver, name)
			}
			for attr := range e.Attrs {
				if htmltoken.SymOf(attr) == htmltoken.NoSym {
					t.Errorf("%s: attribute %q of %s has no Sym", ver, attr, name)
				}
			}
		}
	}
	// Every vocabulary name resolves back to its own Sym in any case.
	// SymOf folds into a 16-byte stack buffer and reports NoSym for
	// anything longer, so this also checks that every name fits it.
	for s := htmltoken.Sym(1); int(s) < htmltoken.NumSyms(); s++ {
		name := htmltoken.SymName(s)
		if name == "" || name != strings.ToLower(name) {
			t.Errorf("Sym %d names %q, want a non-empty lower-case name", s, name)
		}
		if htmltoken.SymOf(name) != s || htmltoken.SymOf(strings.ToUpper(name)) != s {
			t.Errorf("%q (%d bytes) does not resolve back to Sym %d", name, len(name), s)
		}
	}
}

// TestLookupsBySymAndName: the by-name lookups and the Sym lookups the
// checker uses read the same tables.
func TestLookupsBySymAndName(t *testing.T) {
	s := HTML40()
	for _, name := range s.ElementNames() {
		e, sym := s.Element(name), htmltoken.SymOf(name)
		if e == nil || s.ElementSym(sym) != e || s.Element(strings.ToUpper(name)) != e {
			t.Errorf("element %q: by name %p, by Sym %p", name, e, s.ElementSym(sym))
		}
		if got, want := s.Display(name), strings.ToUpper(name); got != want || s.DisplaySym(sym, name) != want {
			t.Errorf("Display(%q) = %q, DisplaySym = %q, want %q", name, got, s.DisplaySym(sym, name), want)
		}
		for attr, ai := range e.Attrs {
			if e.Attr(attr) != ai || e.AttrSym(htmltoken.SymOf(attr)) != ai || e.Attr(strings.ToUpper(attr)) != ai {
				t.Errorf("%s attribute %q does not resolve to its definition", name, attr)
			}
		}
		req := e.RequiredSyms()
		if len(req) != len(e.RequiredAttrs()) {
			t.Fatalf("%s: %d required Syms for %d required attributes", name, len(req), len(e.RequiredAttrs()))
		}
		for i, r := range e.RequiredAttrs() {
			if htmltoken.SymName(req[i]) != r {
				t.Errorf("%s required Sym %d names %q, want %q", name, i, htmltoken.SymName(req[i]), r)
			}
		}
	}
	if s.ElementSym(htmltoken.NoSym) != nil || s.Element("blockqoute") != nil || s.Element(strings.Repeat("x", 40)) != nil {
		t.Error("a name outside the spec resolved to an element")
	}
	if s.Element("img").AttrSym(htmltoken.NoSym) != nil || s.Element("img").Attr("data-thing") != nil {
		t.Error("an unknown attribute resolved")
	}
	if got := s.Display("custom-widget"); got != "CUSTOM-WIDGET" {
		t.Errorf("Display of an unknown name = %q", got)
	}
	// A known Sym that is no element of the spec still displays.
	if got := s.DisplaySym(htmltoken.SymOf("href"), "href"); got != "HREF" {
		t.Errorf("DisplaySym(href) = %q", got)
	}
}
