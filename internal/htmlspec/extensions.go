package htmlspec

// Vendor extensions: the non-standard elements and attributes
// supported by Netscape Navigator and Microsoft Internet Explorer, as
// the paper's "other modules define the non-standard extensions
// supported by Microsoft (Internet Explorer) and Netscape (Navigator)".
//
// Extension entries are present in every spec, tagged with their
// vendor. When the extension is not enabled the checker reports uses
// of them with extension-markup / extension-attribute (rather than the
// harsher unknown-element); enabling the extension accepts them
// silently.

const (
	// VendorNetscape tags Netscape Navigator extensions.
	VendorNetscape = "Netscape"
	// VendorMicrosoft tags Microsoft Internet Explorer extensions.
	VendorMicrosoft = "Microsoft"
)

// addVendorExtensions layers the Netscape and Microsoft elements and
// attributes into a base spec.
func addVendorExtensions(s *Spec) {
	m := s.Elements

	// ---- Netscape Navigator elements ----
	add(m,
		elem("blink").inline().vendor(VendorNetscape),
		elem("nobr").inline().vendor(VendorNetscape),
		elem("wbr").empty().vendor(VendorNetscape),
		elem("embed").empty().vendor(VendorNetscape).
			attrs(group(
				aURL("src"), aLen("width"), aLen("height"), a("type"),
				a("name"), a("palette"), aURL("pluginspage"),
				a("hidden"), a("autostart"), a("loop"),
			)),
		elem("noembed").vendor(VendorNetscape),
		elem("layer").vendor(VendorNetscape).
			attrs(group(
				aNameTok("id"), a("name"), aNum("left"), aNum("top"),
				aNum("z-index"), aEnum("visibility", "show", "hide", "inherit"),
				aColor("bgcolor"), aURL("background"), aURL("src"),
				aLen("width"), aLen("height"),
			)),
		elem("ilayer").vendor(VendorNetscape).
			attrs(group(
				aNameTok("id"), a("name"), aNum("left"), aNum("top"),
				aColor("bgcolor"), aURL("src"), aLen("width"), aLen("height"),
			)),
		elem("nolayer").vendor(VendorNetscape),
		elem("multicol").vendor(VendorNetscape).
			attrs(group(req(aNum("cols")), aNum("gutter"), aLen("width"))),
		elem("spacer").empty().vendor(VendorNetscape).
			attrs(group(
				aEnum("type", "horizontal", "vertical", "block"),
				aNum("size"), aLen("width"), aLen("height"),
				aEnum("align", "top", "middle", "bottom", "left", "right"),
			)),
		elem("keygen").empty().vendor(VendorNetscape).
			attrs(group(req(a("name")), a("challenge"))),
		elem("server").vendor(VendorNetscape),
	)

	// ---- Microsoft Internet Explorer elements ----
	add(m,
		elem("marquee").vendor(VendorMicrosoft).
			attrs(group(
				aEnum("behavior", "scroll", "slide", "alternate"),
				aColor("bgcolor"),
				aEnum("direction", "left", "right", "up", "down"),
				aLen("height"), aLen("width"), aNum("hspace"), aNum("vspace"),
				a("loop"), aNum("scrollamount"), aNum("scrolldelay"),
			)),
		elem("bgsound").empty().vendor(VendorMicrosoft).
			attrs(group(req(aURL("src")), a("loop"), aNum("balance"), aNum("volume"))),
		elem("comment").vendor(VendorMicrosoft),
	)

	// ---- Netscape attributes on standard elements ----
	addAttr(m, "img", ext(VendorNetscape, aURL("lowsrc")))
	addAttr(m, "body", ext(VendorNetscape, aNum("marginwidth")))
	addAttr(m, "body", ext(VendorNetscape, aNum("marginheight")))
	addAttr(m, "table", ext(VendorNetscape, aLen("height")))
	addAttr(m, "frameset", ext(VendorNetscape, aNum("border")))
	addAttr(m, "frameset", ext(VendorNetscape, aColor("bordercolor")))
	addAttr(m, "frame", ext(VendorNetscape, aColor("bordercolor")))
	addAttr(m, "input", ext(VendorNetscape, a("onfocus")))

	// ---- Microsoft attributes on standard elements ----
	addAttr(m, "body", ext(VendorMicrosoft, aNum("leftmargin")))
	addAttr(m, "body", ext(VendorMicrosoft, aNum("topmargin")))
	addAttr(m, "body", ext(VendorMicrosoft, aNum("rightmargin")))
	addAttr(m, "body", ext(VendorMicrosoft, aNum("bottommargin")))
	addAttr(m, "body", ext(VendorMicrosoft, aEnum("bgproperties", "fixed")))
	addAttr(m, "table", ext(VendorMicrosoft, aColor("bordercolor")))
	addAttr(m, "table", ext(VendorMicrosoft, aColor("bordercolorlight")))
	addAttr(m, "table", ext(VendorMicrosoft, aColor("bordercolordark")))
	addAttr(m, "table", ext(VendorMicrosoft, aURL("background")))
	addAttr(m, "td", ext(VendorMicrosoft, aColor("bordercolor")))
	addAttr(m, "td", ext(VendorMicrosoft, aURL("background")))
	addAttr(m, "th", ext(VendorMicrosoft, aColor("bordercolor")))
	addAttr(m, "tr", ext(VendorMicrosoft, aColor("bordercolor")))
	addAttr(m, "hr", ext(VendorMicrosoft, aColor("color")))
	addAttr(m, "img", ext(VendorMicrosoft, aURL("dynsrc")))
	addAttr(m, "img", ext(VendorMicrosoft, a("loop")))
	addAttr(m, "img", ext(VendorMicrosoft, aEnum("start", "fileopen", "mouseover")))
	addAttr(m, "marquee", ext(VendorMicrosoft, a("truespeed")))
}

// addAttr adds one attribute to an element's table if the element is
// present in the spec (HTML 3.2 lacks some elements HTML 4.0 has).
func addAttr(m map[string]*ElementInfo, elemName string, ai AttrInfo) {
	e, ok := m[elemName]
	if !ok {
		return
	}
	if _, exists := e.Attrs[ai.Name]; exists {
		return // standard attribute wins over a vendor copy
	}
	a := ai
	e.Attrs[a.Name] = &a
}
