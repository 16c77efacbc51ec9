// Package htmlspec encapsulates the information weblint needs when
// checking against a specific version of HTML: the valid elements and
// their content behaviour (are they containers? may their close tag be
// omitted?), the valid attributes and legal values for attributes, and
// the legal context for elements.
//
// The package is the Go analogue of the paper's Weblint::HTML40 module
// and friends: sets of tables which drive the operation of the checker.
// Hand-authored tables are provided for HTML 3.2 and HTML 4.0, with the
// Netscape and Microsoft extensions layered in as vendor-tagged entries
// (enable an extension to accept its markup silently; leave it disabled
// to have uses of it reported).
//
// # Immutability and sharing
//
// The HTML20, HTML32 and HTML40 version tables are built exactly once,
// on first use, and the same *Spec is returned to every caller — the
// constructors are O(1) after the first call, which keeps building a
// Linter cheap enough for per-request use. In exchange, a Spec and
// everything reachable from it (ElementInfo, AttrInfo, the slices they
// hold) is immutable: callers must never modify a Spec obtained from
// this package. Per-linter variation is expressed as an overlay: the
// WithExtensions method returns a shallow copy carrying its own
// extension-enablement set while sharing the element tables, so two
// linters with different extensions enabled never observe each other's
// configuration.
package htmlspec

import (
	"math"
	"slices"
	"strings"
	"sync"

	"weblint/internal/ascii"
	"weblint/internal/htmltoken"
)

// ValueType classifies how an attribute's value is validated.
type ValueType int

const (
	// CDATA accepts any value.
	CDATA ValueType = iota
	// Color accepts a color name or #rrggbb triplet.
	Color
	// Number accepts a non-empty string of digits.
	Number
	// Length accepts digits optionally followed by '%' or '*'.
	Length
	// MultiLength accepts a comma-separated list of lengths, the
	// form FRAMESET ROWS/COLS take ("50%,50%" or "1*,2*,100").
	MultiLength
	// URL accepts any value; URL scheme problems are diagnosed
	// separately by the checker.
	URL
	// NameToken accepts an SGML name token.
	NameToken
	// Enum accepts one of an explicit, case-insensitive value list.
	Enum
)

// AttrInfo describes one attribute of an element.
type AttrInfo struct {
	// Name is the attribute name, lower-case.
	Name string
	// Type selects the value validator.
	Type ValueType
	// Values is the legal value list for Enum attributes.
	Values []string
	// Required reports that the attribute must be present on the tag.
	Required bool
	// Deprecated reports the attribute is deprecated in this HTML
	// version (usually in favour of style sheets).
	Deprecated bool
	// Extension names the vendor ("Netscape", "Microsoft") when the
	// attribute is not part of standard HTML, or is empty.
	Extension string
}

// ValidValue reports whether v is legal for the attribute.
func (a *AttrInfo) ValidValue(v string) bool {
	switch a.Type {
	case CDATA, URL:
		return true
	case Color:
		return ValidColor(v)
	case Number:
		return isDigits(v)
	case Length:
		return validLength(v)
	case MultiLength:
		if v == "" {
			return false
		}
		for _, part := range strings.Split(v, ",") {
			if !validLength(strings.TrimSpace(part)) {
				return false
			}
		}
		return true
	case NameToken:
		return isNameToken(v)
	case Enum:
		for _, ok := range a.Values {
			if strings.EqualFold(v, ok) {
				return true
			}
		}
		return false
	}
	return true
}

// ElementInfo describes one element of an HTML version.
type ElementInfo struct {
	// Name is the canonical element name, lower-case.
	Name string
	// Empty reports that the element has no content and no close tag
	// (BR, IMG, HR, ...).
	Empty bool
	// OmitClose reports that the close tag may legally be omitted
	// (P, LI, TD, ...); such elements pop silently when implied
	// closed.
	OmitClose bool
	// Inline reports phrase/font-level markup (B, I, EM, A, ...).
	// The overlap heuristic reports inline close tags that cross
	// other elements as element-overlap.
	Inline bool
	// Structural reports structural containers (HTML, HEAD, TABLE,
	// lists, ...) whose close tags force intervening unclosed
	// elements to be reported as unclosed-element.
	Structural bool
	// OnceOnly reports elements which may appear at most once per
	// document (HTML, HEAD, BODY, TITLE).
	OnceOnly bool
	// HeadOnly reports elements which belong in the HEAD.
	HeadOnly bool
	// FormField reports form controls which should appear inside a
	// FORM element.
	FormField bool
	// Deprecated and Obsolete report the element's status in this
	// HTML version; Replacement names the suggested substitute.
	Deprecated  bool
	Obsolete    bool
	Replacement string
	// Context lists the Syms of the only parents the element may
	// directly appear in; empty means unconstrained.
	Context []htmltoken.Sym
	// ImpliedEndBy lists the Syms of sibling elements whose start tag
	// implies this element's end (LI ends LI, DT/DD end each other,
	// ...).
	ImpliedEndBy []htmltoken.Sym
	// NoSelfNest reports elements which may not be nested within
	// themselves (A, FORM, LABEL).
	NoSelfNest bool
	// EmptyOK suppresses the empty-container check for containers
	// which are legitimately empty (TD, TEXTAREA, ...).
	EmptyOK bool
	// Attrs maps lower-case attribute names to their definitions.
	Attrs map[string]*AttrInfo
	// Extension names the vendor when the element is not part of
	// standard HTML.
	Extension string

	// The lookup tables below are filled by Spec.finalize, so the
	// lookups work on ElementInfo values obtained from a Spec.
	//
	// attrIdx holds, at the Sym of each attribute in Attrs, one plus
	// its index in attrList, and 0 at every other Sym. One byte per
	// Sym keeps it an eighth of the size of a []*AttrInfo indexed by
	// Sym, for each of a spec's hundred-odd elements.
	attrIdx  []uint8
	attrList []*AttrInfo
	// requiredAttrs is the RequiredAttrs result and requiredSyms the
	// same attributes' Syms, in the same order.
	requiredAttrs []string
	requiredSyms  []htmltoken.Sym
}

// Attr returns the definition of the named attribute
// (case-insensitively), or nil when the attribute is not defined for
// the element. It never allocates.
func (e *ElementInfo) Attr(name string) *AttrInfo {
	return e.AttrSym(htmltoken.SymOf(name))
}

// AttrSym returns the definition of the attribute whose name has Sym
// s, or nil when the element does not define it (always for NoSym).
func (e *ElementInfo) AttrSym(s htmltoken.Sym) *AttrInfo {
	if i := e.attrIdx[s]; i != 0 {
		return e.attrList[i-1]
	}
	return nil
}

// RequiredAttrs returns the names of all required attributes, sorted.
// The list is precomputed; callers must treat it as read-only.
func (e *ElementInfo) RequiredAttrs() []string { return e.requiredAttrs }

// RequiredSyms returns the Syms of RequiredAttrs, in the same order.
// Callers must treat it as read-only.
func (e *ElementInfo) RequiredSyms() []htmltoken.Sym { return e.requiredSyms }

// index builds e's Sym-indexed attribute table and required-attribute
// lists (see Spec.finalize).
func (e *ElementInfo) index() {
	e.attrIdx = make([]uint8, htmltoken.NumSyms())
	e.attrList = make([]*AttrInfo, 0, len(e.Attrs))
	for name, a := range e.Attrs {
		if len(e.attrList) == math.MaxUint8 {
			panic("htmlspec: element " + e.Name + " has more attributes than attrIdx can index")
		}
		e.attrList = append(e.attrList, a)
		e.attrIdx[mustSym(name)] = uint8(len(e.attrList))
	}
	e.requiredAttrs = requiredAttrsOf(e)
	e.requiredSyms = make([]htmltoken.Sym, len(e.requiredAttrs))
	for i, name := range e.requiredAttrs {
		e.requiredSyms[i] = htmltoken.SymOf(name)
	}
}

// mustSym returns the Sym of a spec table's name. Every name the
// tables use is in the htmltoken vocabulary (TestEverySpecNameHasSym);
// one that is not is a bug in the tables.
func mustSym(name string) htmltoken.Sym {
	s := htmltoken.SymOf(name)
	if s == htmltoken.NoSym {
		panic("htmlspec: " + name + " is outside the htmltoken vocabulary")
	}
	return s
}

// syms returns the Syms of a table's element names.
func syms(names []string) []htmltoken.Sym {
	out := make([]htmltoken.Sym, len(names))
	for i, name := range names {
		out[i] = mustSym(name)
	}
	return out
}

// requiredAttrsOf computes the sorted required-attribute list.
func requiredAttrsOf(e *ElementInfo) []string {
	var out []string
	for _, a := range e.Attrs {
		if a.Required {
			out = append(out, a.Name)
		}
	}
	sortStrings(out)
	return out
}

// ImpliedEndedBy reports whether an opening tag for the element with
// Sym other implies the end of this element (never for NoSym).
func (e *ElementInfo) ImpliedEndedBy(other htmltoken.Sym) bool {
	return slices.Contains(e.ImpliedEndBy, other)
}

// InContext reports whether the element with Sym parent is a legal
// direct parent (never NoSym). It is always true for elements with
// unconstrained context.
func (e *ElementInfo) InContext(parent htmltoken.Sym) bool {
	return len(e.Context) == 0 || slices.Contains(e.Context, parent)
}

// maxFoldKey is the longest name the zero-allocation case-folding map
// lookup handles on the stack; longer names fall back to
// strings.ToLower.
const maxFoldKey = 32

// foldLookup is a zero-allocation case-insensitive map lookup: exact
// hit first; no second probe when a miss is already lower-case
// (folding would produce the same key); a stack-buffer fold for names
// up to maxFoldKey; strings.ToLower beyond that.
func foldLookup[V any](m map[string]V, name string) V {
	if v, ok := m[name]; ok {
		return v
	}
	if ascii.IsLower(name) {
		var zero V
		return zero
	}
	if len(name) <= maxFoldKey {
		var buf [maxFoldKey]byte
		return m[string(ascii.AppendLower(buf[:0], name))]
	}
	return m[strings.ToLower(name)]
}

// Spec is a complete description of one HTML version, optionally with
// vendor extensions enabled. Specs returned by this package are shared
// and immutable — see the package comment; derive per-linter variants
// with WithExtensions instead of mutating.
type Spec struct {
	// Version is the human name, e.g. "HTML 4.0".
	Version string
	// HTML40 selects the HTML 4.0 entity set for entity checking.
	HTML40 bool
	// Elements maps lower-case element names to their definitions.
	Elements map[string]*ElementInfo
	// EnabledExtensions marks vendor extensions (lower-case keys)
	// which have been enabled; markup from enabled vendors is
	// accepted silently. It is owned by exactly one Spec value:
	// WithExtensions copies it, never shares it.
	EnabledExtensions map[string]bool

	// elements holds each of Elements at its name's Sym, and nil at
	// every other Sym; filled by finalize.
	elements []*ElementInfo
}

// Element looks up an element by name, case-insensitively. It returns
// nil for unknown elements. It never allocates.
func (s *Spec) Element(name string) *ElementInfo {
	return s.ElementSym(htmltoken.SymOf(name))
}

// ElementSym returns the element whose name has Sym sym, or nil when
// the spec does not define it (always for NoSym).
func (s *Spec) ElementSym(sym htmltoken.Sym) *ElementInfo {
	return s.elements[sym]
}

// Display returns the upper-case display form of an element name the
// way weblint prints it in messages (lower-case "img" → "IMG").
// Vocabulary names resolve from a precomputed table without
// allocating.
func (s *Spec) Display(name string) string {
	return s.DisplaySym(htmltoken.SymOf(name), name)
}

// DisplaySym is Display for a name whose Sym the caller already holds,
// as a token carries it: a vocabulary name is one table index, and
// only a NoSym name is upper-cased.
func (s *Spec) DisplaySym(sym htmltoken.Sym, name string) string {
	if sym != htmltoken.NoSym {
		return displayNames[sym]
	}
	return ascii.ToUpper(name)
}

// displayNames holds the upper-case display form of every vocabulary
// name at its Sym. It is one table for every spec: the display form
// depends on the name alone.
var displayNames = func() []string {
	names := make([]string, htmltoken.NumSyms())
	for i := range names {
		names[i] = strings.ToUpper(htmltoken.SymName(htmltoken.Sym(i)))
	}
	return names
}()

// WithExtensions returns a spec with the given vendor extensions
// ("netscape", "microsoft"; case-insensitive) enabled in addition to
// any already enabled on s. The element tables are shared, not copied;
// s itself is not modified, so the shared memoized specs stay pristine.
// Unknown extension names are accepted and recorded so configuration
// remains forward-compatible. With no vendors to add, s is returned
// unchanged.
func (s *Spec) WithExtensions(vendors ...string) *Spec {
	if len(vendors) == 0 {
		return s
	}
	c := *s
	c.EnabledExtensions = make(map[string]bool, len(s.EnabledExtensions)+len(vendors))
	for v := range s.EnabledExtensions {
		c.EnabledExtensions[v] = true
	}
	for _, v := range vendors {
		c.EnabledExtensions[ascii.ToLower(v)] = true
	}
	return &c
}

// ExtensionEnabled reports whether the vendor's extension is enabled
// (case-insensitive). It never allocates, so the checker can consult
// it per vendor-tagged element or attribute.
func (s *Spec) ExtensionEnabled(vendor string) bool {
	if len(s.EnabledExtensions) == 0 {
		return false
	}
	return foldLookup(s.EnabledExtensions, vendor)
}

// finalize builds the lookup tables the hot path indexes by Sym (the
// elements, each element's attributes and required attributes) after
// a spec's tables are fully built. It must be called before the spec
// is shared; finalized specs are immutable.
func (s *Spec) finalize() *Spec {
	s.elements = make([]*ElementInfo, htmltoken.NumSyms())
	for name, e := range s.Elements {
		s.elements[mustSym(name)] = e
		e.index()
	}
	return s
}

// ElementNames returns all element names in the spec, sorted.
func (s *Spec) ElementNames() []string {
	out := make([]string, 0, len(s.Elements))
	for n := range s.Elements {
		out = append(out, n)
	}
	sortStrings(out)
	return out
}

// Memoization: each version table is built exactly once and shared.
// The builders run a few hundred microseconds and allocate the whole
// element graph; doing that per lint.New made constructing a linter
// the most expensive step of a gateway request.
var (
	html20Once, html32Once, html40Once sync.Once
	html20Spec, html32Spec, html40Spec *Spec
)

// HTML20 returns the shared, immutable HTML 2.0 spec. The tables are
// built on first use; every call returns the same *Spec.
func HTML20() *Spec {
	html20Once.Do(func() { html20Spec = buildHTML20().finalize() })
	return html20Spec
}

// HTML32 returns the shared, immutable HTML 3.2 spec.
func HTML32() *Spec {
	html32Once.Do(func() { html32Spec = buildHTML32().finalize() })
	return html32Spec
}

// HTML40 returns the shared, immutable HTML 4.0 transitional spec
// (with frameset elements), the version weblint checks against by
// default.
func HTML40() *Spec {
	html40Once.Do(func() { html40Spec = buildHTML40().finalize() })
	return html40Spec
}

// Default returns the spec weblint checks against when not otherwise
// configured: HTML 4.0, as in the paper ("By default Weblint will check
// against HTML 4.0").
func Default() *Spec { return HTML40() }

// ByVersion returns the spec for a version string ("4.0", "html4.0",
// "3.2", "2.0", ...). The boolean result reports whether the version
// is known.
func ByVersion(v string) (*Spec, bool) {
	switch strings.ToLower(strings.TrimSpace(strings.TrimPrefix(strings.ToLower(v), "html"))) {
	case "4.0", "4", "40":
		return HTML40(), true
	case "3.2", "3", "32":
		return HTML32(), true
	case "2.0", "2", "20":
		return HTML20(), true
	}
	return nil, false
}

// ----------------------------------------------------------------
// Table construction helpers. These keep the HTML version tables
// compact and declarative.
// ----------------------------------------------------------------

// eb is an element builder.
type eb struct{ e *ElementInfo }

func elem(name string) *eb {
	return &eb{&ElementInfo{Name: name, Attrs: map[string]*AttrInfo{}}}
}

func (x *eb) empty() *eb          { x.e.Empty = true; return x }
func (x *eb) omit() *eb           { x.e.OmitClose = true; return x }
func (x *eb) inline() *eb         { x.e.Inline = true; return x }
func (x *eb) structural() *eb     { x.e.Structural = true; return x }
func (x *eb) once() *eb           { x.e.OnceOnly = true; return x }
func (x *eb) head() *eb           { x.e.HeadOnly = true; return x }
func (x *eb) formField() *eb      { x.e.FormField = true; return x }
func (x *eb) noSelfNest() *eb     { x.e.NoSelfNest = true; return x }
func (x *eb) emptyOK() *eb        { x.e.EmptyOK = true; return x }
func (x *eb) vendor(v string) *eb { x.e.Extension = v; return x }
func (x *eb) context(p ...string) *eb {
	x.e.Context = syms(p)
	return x
}
func (x *eb) impliedEnd(names ...string) *eb {
	x.e.ImpliedEndBy = syms(names)
	return x
}
func (x *eb) deprecated(repl string) *eb {
	x.e.Deprecated = true
	x.e.Replacement = repl
	return x
}
func (x *eb) obsolete(repl string) *eb {
	x.e.Obsolete = true
	x.e.Replacement = repl
	return x
}
func (x *eb) attrs(groups ...[]AttrInfo) *eb {
	for _, g := range groups {
		for i := range g {
			a := g[i]
			x.e.Attrs[a.Name] = &a
		}
	}
	return x
}

// add registers the built element into a spec map.
func add(m map[string]*ElementInfo, builders ...*eb) {
	for _, x := range builders {
		m[x.e.Name] = x.e
	}
}

// pruneImpliedEnds drops implied-end triggers that the version does
// not define (the shared blockLevel list is written for HTML 4.0;
// earlier versions lack some of its members). Each element's list is
// its own, built by impliedEnd, so it is pruned in place.
func pruneImpliedEnds(m map[string]*ElementInfo) {
	for _, e := range m {
		e.ImpliedEndBy = slices.DeleteFunc(e.ImpliedEndBy, func(sym htmltoken.Sym) bool {
			return m[htmltoken.SymName(sym)] == nil
		})
	}
}

// Attribute constructors.

func a(name string) AttrInfo    { return AttrInfo{Name: name, Type: CDATA} }
func aURL(name string) AttrInfo { return AttrInfo{Name: name, Type: URL} }
func aNum(name string) AttrInfo { return AttrInfo{Name: name, Type: Number} }
func aLen(name string) AttrInfo { return AttrInfo{Name: name, Type: Length} }
func aMultiLen(name string) AttrInfo {
	return AttrInfo{Name: name, Type: MultiLength}
}
func aColor(name string) AttrInfo   { return AttrInfo{Name: name, Type: Color} }
func aNameTok(name string) AttrInfo { return AttrInfo{Name: name, Type: NameToken} }
func aEnum(name string, vals ...string) AttrInfo {
	return AttrInfo{Name: name, Type: Enum, Values: vals}
}

// req marks an attribute required.
func req(ai AttrInfo) AttrInfo { ai.Required = true; return ai }

// dep marks an attribute deprecated.
func dep(ai AttrInfo) AttrInfo { ai.Deprecated = true; return ai }

// ext marks an attribute as a vendor extension.
func ext(vendor string, ai AttrInfo) AttrInfo { ai.Extension = vendor; return ai }

// group bundles attribute constructors into a reusable set.
func group(as ...AttrInfo) []AttrInfo { return as }

// validLength accepts digits optionally followed by '%' or '*', and a
// bare '*' (relative remainder).
func validLength(v string) bool {
	if v == "" {
		return false
	}
	body := v
	if strings.HasSuffix(v, "%") || strings.HasSuffix(v, "*") {
		body = v[:len(v)-1]
	}
	if body == "" && strings.HasSuffix(v, "*") {
		return true
	}
	return isDigits(body)
}

func isDigits(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

func isNameToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '.' || c == '_' || c == ':':
		default:
			return false
		}
	}
	return true
}

// colorNames are the sixteen color names defined by HTML 4.0.
var colorNames = map[string]bool{
	"aqua": true, "black": true, "blue": true, "fuchsia": true,
	"gray": true, "green": true, "lime": true, "maroon": true,
	"navy": true, "olive": true, "purple": true, "red": true,
	"silver": true, "teal": true, "white": true, "yellow": true,
}

// ValidColor reports whether v is a legal HTML color value: one of the
// sixteen HTML 4.0 color names, or an RGB triplet of the form #rrggbb.
func ValidColor(v string) bool {
	if colorNames[strings.ToLower(v)] {
		return true
	}
	if len(v) != 7 || v[0] != '#' {
		return false
	}
	for i := 1; i < 7; i++ {
		c := v[i]
		ok := c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
		if !ok {
			return false
		}
	}
	return true
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
