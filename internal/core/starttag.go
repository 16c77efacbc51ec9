package core

import (
	"strings"

	"weblint/internal/ascii"
	"weblint/internal/htmlspec"
	"weblint/internal/htmltoken"
	"weblint/internal/warn"
)

// startTag handles an opening tag: tokenizer-recovery diagnostics,
// implied closes, element identity and context checks, attribute
// checks, and stack maintenance.
func (c *Checker) startTag(tok *htmltoken.Token) {
	if tok.EmptyTag {
		c.emitAt("empty-tag", tok.Line, tok.Col)
		return
	}
	c.noteElement(tok.Line)

	name, sym := tok.Lower, tok.Sym
	display := c.spec.DisplaySym(sym, name)
	info := c.spec.ElementSym(sym)

	if tok.Unterminated {
		c.emitAt("malformed-tag", tok.Line, tok.Col)
		return
	}
	if tok.OddQuotes {
		c.emitAt("odd-quotes", tok.Line, tok.Col, tok.Raw)
	}
	// Decide up front whether this tag will be relocated by the
	// meta-in-body fix: from here on, every fix editing inside the tag
	// is diverted into the relocation's insertion text instead of the
	// message stream (two fixes on one span would conflict in fixit).
	relocating := c.planMetaRelocation(tok, sym, info)
	if tok.SlashClose {
		c.emitFixAt("spurious-slash", tok.Line, tok.Col, c.tagFix(tok, slashFix(tok)), display)
	}
	c.checkTagCase(tok, display, false)

	// Element identity.
	switch {
	case info == nil:
		c.emitAt("unknown-element", tok.Line, tok.Col, display)
	case info.Extension != "" && !c.spec.ExtensionEnabled(info.Extension):
		c.emitAt("extension-markup", tok.Line, tok.Col, display, info.Extension, c.spec.Version)
	case info.Obsolete:
		c.emitAt("obsolete-element", tok.Line, tok.Col, display, info.Replacement)
	case info.Deprecated:
		c.emitAt("deprecated-element", tok.Line, tok.Col, display, info.Replacement)
	}

	// Implied closes: opening this element legally ends some open
	// elements (LI ends LI, a block element ends P, ...).
	c.applyImpliedClose(sym, tok.Line, tok.Offset)

	if info != nil {
		c.checkStructure(tok, sym, display, info)
	}

	// Mark content on the parent before pushing.
	if parent := c.top(); parent != nil {
		parent.content = true
	}

	// Attribute checks (suppressed wholesale on odd-quote recovery,
	// since the attribute list is then known to be garbled).
	if !tok.OddQuotes {
		c.checkAttrs(tok, sym, display, info)
	}

	// The meta-in-body message is emitted after the attribute checks
	// so its relocation fix can carry every diverted cure; fixless
	// sites emit it at the usual placement point in checkStructure.
	if relocating {
		c.emitFixAt("meta-in-body", tok.Line, tok.Col, c.guardFix(c.metaRelocationFix(tok)))
	}

	c.trackDocumentState(sym)

	if info != nil && info.Empty {
		return // empty elements are never pushed
	}
	c.pushOpen(c.newOpen(name, sym, display, tok.Line, tok.Col, info))

	// The tokenizer switches into raw-text mode after this tag; arm the
	// empty-raw-body compensation (see the pendingRawText field).
	if htmltoken.IsRawText(sym) {
		c.pendingRawText = true
	}
}

// applyImpliedClose pops open elements whose end is implied by the
// arrival of a start tag for the element with Sym sym at byte offset
// off.
func (c *Checker) applyImpliedClose(sym htmltoken.Sym, line, off int) {
	for {
		t := c.top()
		if t == nil || t.info == nil || !t.info.ImpliedEndedBy(sym) {
			return
		}
		c.truncateStack(len(c.stack) - 1)
		c.noteHeadPop(t, off)
		if c.opts.DisableImpliedClose {
			c.emit("unclosed-element", line, t.display, t.display, warn.LineRef(t.line))
		} else {
			c.popChecks(t)
		}
	}
}

// checkStructure performs the element-level structure checks: once
// only elements, head/body placement, required context, self-nesting,
// heading order.
func (c *Checker) checkStructure(tok *htmltoken.Token, sym htmltoken.Sym, display string, info *htmlspec.ElementInfo) {
	line, col, name := tok.Line, tok.Col, tok.Lower
	// Once-only elements (HTML, HEAD, BODY, TITLE).
	if info.OnceOnly {
		if first, dup := c.seenOnce[name]; dup {
			c.emitAt("once-only", line, col, display, warn.LineRef(first))
		} else {
			c.seenOnce[name] = line
		}
	}

	// HEAD-only elements appearing in the BODY.
	if info.HeadOnly {
		c.headContent = true
		if c.inElement(symHead) == nil && (c.seenBody || c.inElement(symBody) != nil) {
			if sym == symMeta {
				// A tag being relocated emits its message after the
				// attribute checks (see startTag), carrying the fix.
				if c.relocateTok != tok {
					c.emitAt("meta-in-body", line, col)
				}
			} else {
				c.emitAt("head-element", line, col, display)
			}
		}
	} else if !info.Empty && c.inElement(symHead) != nil &&
		sym != symHTML && sym != symScript && sym != symNoscript && !info.HeadOnly {
		// Rendered markup inside the HEAD.
		c.emitAt("body-element", line, col, display)
	}

	// Required parent context (LI in lists, TD in TR, ...).
	if len(info.Context) > 0 {
		parent := htmltoken.NoSym
		if t := c.top(); t != nil {
			parent = t.sym
		}
		if !info.InContext(parent) {
			c.emitAt("required-context", line, col, display, contextList(info.Context))
		}
	}

	// Form fields outside any FORM.
	if info.FormField && c.inElement(symForm) == nil {
		c.emitAt("form-field-context", line, col, display)
	}

	// Elements which may not nest within themselves.
	if info.NoSelfNest {
		if prev := c.inElement(sym); prev != nil {
			c.emitAt("nested-element", line, col, display, display, display, warn.LineRef(prev.line))
		}
	}

	// Heading order and headings inside anchors.
	if lvl := headingLevel(name); lvl > 0 {
		if c.lastHeading > 0 && lvl > c.lastHeading+1 {
			c.emitAt("heading-order", line, col, display, c.lastHeadingName)
		}
		c.lastHeading = lvl
		c.lastHeadingName = display
		if c.inElement(symA) != nil {
			c.emitAt("heading-in-anchor", line, col, display)
		}
	}

	// BODY and FRAMESET are mutually exclusive document styles.
	if sym == symFrameset {
		if b := c.inElement(symBody); b != nil {
			c.emitAt("unexpected-open", line, col, display, "BODY", warn.LineRef(b.line))
		}
	}

	// Physical vs. logical markup (style, off by default).
	if logical := physicalToLogical(sym); logical != "" {
		c.emitAt("physical-font", line, col, logical, display)
	}
}

// trackDocumentState records document-level facts used by Finish.
func (c *Checker) trackDocumentState(sym htmltoken.Sym) {
	switch sym {
	case symHTML:
		c.seenHTML = true
	case symHead:
		c.seenHead = true
	case symBody:
		c.seenBody = true
	case symTitle:
		c.seenTitle = true
	case symFrameset:
		c.seenFrameset = true
	case symNoframes:
		c.seenNoframes = true
	}
}

// checkTagCase implements the optional tag-case style check. The fix
// rewrites the tag name span in place (offset +1 past '<', +2 past
// '</' for closing tags). noFix suppresses the fix when the caller
// knows the whole tag will be deleted by a later fix — a rewrite
// inside a deleted span would win the conflict and block the
// deletion.
func (c *Checker) checkTagCase(tok *htmltoken.Token, display string, noFix bool) {
	want := c.opts.TagCase
	if want != "upper" && want != "lower" {
		return
	}
	written := tok.Name
	if want == "upper" && ascii.IsUpper(written) || want == "lower" && ascii.IsLower(written) {
		return
	}
	var fix *warn.Fix
	if !noFix {
		nameOff := tok.Offset + 1
		if tok.Type == htmltoken.EndTag {
			nameOff++
		}
		fix = c.divertFix(tok, caseFix(want+"-case tag name", written, nameOff, want))
	}
	c.emitFixAt("tag-case", tok.Line, tok.Col, fix, display, want)
}

// checkAttrs checks the attribute list of a start tag. The checks run
// in two passes to match weblint's output order: quoting style first,
// then attribute identity and value legality.
func (c *Checker) checkAttrs(tok *htmltoken.Token, sym htmltoken.Sym, display string, info *htmlspec.ElementInfo) {
	// Pass 1: quoting. Quoting fixes are only attached to the first
	// occurrence of an attribute name (a repeated attribute's fix is
	// its deletion in pass 2, and two fixes on the same span would
	// conflict away the deletion) and only when the tag's attribute
	// parse is trustworthy.
	garbled := attrsGarbled(tok)
	for i := range tok.Attrs {
		at := &tok.Attrs[i]
		if !at.HasValue {
			continue
		}
		switch at.Quote {
		case 0:
			if !isNameTokenValue(at.Value) {
				var fix *warn.Fix
				if !garbled && quotableValue(at.Value) && firstOfName(tok.Attrs[:i], at.Lower) {
					fix = c.tagFix(tok, quoteValueFix(at))
				}
				c.emitFixAt("attribute-delimiter", at.Line, at.Col, fix, at.Name, at.Value, display, at.Name, at.Value)
			}
		case '\'':
			var fix *warn.Fix
			if !garbled && !at.UnterminatedQuote && quotableValue(at.Value) && firstOfName(tok.Attrs[:i], at.Lower) {
				fix = c.tagFix(tok, requoteValueFix(at))
			}
			c.emitFixAt("single-quotes", at.Line, at.Col, fix, at.Name, display)
		}
	}

	// Pass 2: identity, duplication, and value legality. The seen
	// tables are owned by the checker and recycled per tag.
	for i := range tok.Attrs {
		at := &tok.Attrs[i]
		if c.seenAttr(at) != nil {
			var fix *warn.Fix
			if !garbled && deletableAttr(tok, at) {
				fix = c.tagFix(tok, deleteAttrFix(tok, i))
			}
			c.emitFixAt("repeated-attribute", at.Line, at.Col, fix, at.Name, display)
			continue
		}
		if at.Sym != htmltoken.NoSym {
			c.attrSeen[at.Sym] = at
		} else {
			c.attrSeenByName[at.Lower] = at
		}

		if info == nil {
			continue // unknown element already reported; don't cascade
		}
		ai := info.AttrSym(at.Sym)
		if ai == nil {
			c.emitAt("unknown-attribute", at.Line, at.Col, at.Name, display)
			continue
		}
		if ai.Extension != "" && !c.spec.ExtensionEnabled(ai.Extension) {
			c.emitAt("extension-attribute", at.Line, at.Col, at.Name, display, ai.Extension, c.spec.Version)
		} else if ai.Deprecated {
			c.emitAt("deprecated-attribute", at.Line, at.Col, at.Name, display)
		}
		if at.HasValue {
			c.checkAttrValue(at, ai, display)
		}
	}

	if info != nil {
		c.checkRequiredAttrs(tok, display, info, garbled)
		c.checkAttrCase(tok, display)
		c.checkSpecialAttrs(tok, sym)
	}

	// Forget this tag's attributes: their own slots, not the table.
	for i := range tok.Attrs {
		c.attrSeen[tok.Attrs[i].Sym] = nil
	}
	if len(c.attrSeenByName) > 0 {
		clear(c.attrSeenByName)
	}
}

// seenAttr returns the earlier attribute of the tag being checked that
// has at's name, or nil.
func (c *Checker) seenAttr(at *htmltoken.Attr) *htmltoken.Attr {
	if at.Sym != htmltoken.NoSym {
		return c.attrSeen[at.Sym]
	}
	return c.attrSeenByName[at.Lower]
}

// checkRequiredAttrs reports the element's required attributes the tag
// lacks. The fix inserts NAME="" before the tag terminator — only when
// the empty value is legal for the attribute, so the fix cannot trade
// a required-attribute finding for an attribute-value one.
func (c *Checker) checkRequiredAttrs(tok *htmltoken.Token, display string, info *htmlspec.ElementInfo, garbled bool) {
	for _, req := range info.RequiredSyms() {
		if c.attrSeen[req] != nil {
			continue
		}
		reqName := htmltoken.SymName(req)
		var fix *warn.Fix
		if ai := info.AttrSym(req); !garbled && ai != nil && ai.ValidValue("") {
			fix = c.tagFix(tok, insertAttrFix(tok, reqName, c.opts.AttrCase))
		}
		c.emitFixAt("required-attribute", tok.Line, tok.Col, fix, strings.ToUpper(reqName), display)
	}
}

// checkAttrValue validates one attribute value against its definition.
func (c *Checker) checkAttrValue(at *htmltoken.Attr, ai *htmlspec.AttrInfo, display string) {
	if !ai.ValidValue(at.Value) {
		id := "attribute-value"
		if ai.Type == htmlspec.Color {
			id = "body-colors"
		}
		c.emitAt(id, at.Line, at.Col, strings.ToUpper(at.Name), display, at.Value)
		return
	}
	// Entity references inside the value.
	c.checkEntities(at.Value, -1, at.Line, false)

	if ai.Type == htmlspec.URL && at.Value != "" {
		if scheme, bad := badScheme(at.Value); bad {
			c.emitAt("bad-url-scheme", at.Line, at.Col, scheme, at.Value)
		}
		if ascii.HasPrefixFold(at.Value, "mailto:") {
			c.emitAt("mailto-link", at.Line, at.Col, at.Value)
		}
	}
}

// checkAttrCase implements the optional attribute-case style check.
// The fix rewrites the attribute name span in place; when the name is
// a repeat its rewrite overlaps the pass-2 deletion fix, which was
// emitted first and therefore wins in fixit's conflict resolution —
// exactly right, since deleting the repeat also removes the case
// problem.
func (c *Checker) checkAttrCase(tok *htmltoken.Token, display string) {
	want := c.opts.AttrCase
	if want != "upper" && want != "lower" {
		return
	}
	for i := range tok.Attrs {
		at := &tok.Attrs[i]
		if want == "upper" && ascii.IsUpper(at.Name) || want == "lower" && ascii.IsLower(at.Name) {
			continue
		}
		fix := c.divertFix(tok, caseFix(want+"-case attribute name", at.Name, at.Offset, want))
		c.emitFixAt("attribute-case", at.Line, at.Col, fix, at.Name, display, want)
	}
}

// checkSpecialAttrs holds the per-element attribute checks: IMG's ALT
// and sizing, duplicate IDs and anchor names, META bookkeeping.
func (c *Checker) checkSpecialAttrs(tok *htmltoken.Token, sym htmltoken.Sym) {
	seen := c.attrSeen
	switch sym {
	case symImg:
		if seen[symAlt] == nil {
			var fix *warn.Fix
			if !attrsGarbled(tok) {
				fix = c.guardFix(insertAttrFix(tok, "alt", c.opts.AttrCase))
			}
			c.emitFixAt("img-alt", tok.Line, tok.Col, fix)
		}
		if seen[symWidth] == nil || seen[symHeight] == nil {
			c.emitAt("img-size", tok.Line, tok.Col)
		}
	case symA:
		if at := seen[symName]; at != nil && at.HasValue {
			if first, dup := c.anchors[at.Value]; dup {
				c.emitAt("duplicate-anchor", at.Line, at.Col, at.Value, warn.LineRef(first))
			} else {
				c.anchors[at.Value] = at.Line
			}
		}
	case symMeta:
		if at := seen[symName]; at != nil && at.HasValue {
			c.metaNames[ascii.ToLower(at.Value)] = true
		}
	}
	if at := seen[symID]; at != nil && at.HasValue {
		if first, dup := c.ids[at.Value]; dup {
			c.emitAt("duplicate-id", at.Line, at.Col, at.Value, warn.LineRef(first))
		} else {
			c.ids[at.Value] = at.Line
		}
	}
}
