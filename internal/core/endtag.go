package core

import (
	"bytes"
	"strings"

	"weblint/internal/ascii"
	"weblint/internal/htmlspec"
	"weblint/internal/htmltoken"
	"weblint/internal/warn"
)

// endTag handles a closing tag. This is where the two-stack heuristics
// live: matching against the main stack, implied closes of omissible
// elements, the overlap-vs-unclosed distinction, and silent resolution
// of tags previously moved to the secondary stack.
func (c *Checker) endTag(tok *htmltoken.Token) {
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
	} else if len(tok.Attrs) > 0 {
		c.emitAt("closing-attribute", tok.Line, tok.Col, display)
	}
	c.checkTagCase(tok, display, c.willRewriteEndTag(sym, info))

	// Close tags for empty elements are never legal; the fix deletes
	// the tag (an empty element has no content to un-close).
	if info != nil && info.Empty {
		c.emitFix("empty-element-close", tok.Line, c.guardFix(deleteTagFix("remove illegal close tag", tok)), display, display)
		return
	}

	// Find the matching open element on the main stack: one openTop
	// probe instead of a per-close stack scan.
	idx := c.openIndex(sym, name)

	if idx < 0 {
		c.unmatchedClose(tok, name, display, info == nil)
		return
	}

	intervening := c.stack[idx+1:]
	matched := c.stack[idx]
	c.truncateStack(idx)
	// Everything from idx up is leaving the stack at this tag; a HEAD
	// among them marks where head-only content can still be inserted.
	c.noteHeadPop(matched, tok.Offset)
	for _, o := range intervening {
		c.noteHeadPop(o, tok.Offset)
	}

	if len(intervening) == 0 {
		c.popChecks(matched)
		return
	}

	if c.opts.DisableCascadeSuppression {
		// Ablation mode: report every forced pop individually and
		// never defer to the secondary stack.
		for i := len(intervening) - 1; i >= 0; i-- {
			o := intervening[i]
			c.emit("unclosed-element", tok.Line, o.display, o.display, warn.LineRef(o.line))
		}
		c.popChecks(matched)
		return
	}

	// Heuristic: when an inline element's close tag crosses other
	// elements, the document most likely has overlapping markup such
	// as <B><A>..</B>..</A>; report the overlap once and move the
	// crossed elements to the secondary stack so their own close
	// tags resolve silently later. When a structural container's
	// close tag forces elements shut, those closes are simply
	// missing: report each as unclosed-element, with a fix inserting
	// the missing close tag just before this one — innermost first,
	// so the inserted tags nest. As at end of document, the fix chain
	// stops at the first element that cannot be closed safely.
	structuralClose := info == nil || !info.Inline
	closable := true

	for i := len(intervening) - 1; i >= 0; i-- {
		o := intervening[i]
		if !o.requiresClose() {
			// Omissible or unknown: implied close, no message.
			if c.opts.DisableImpliedClose && o.info != nil {
				c.emit("unclosed-element", tok.Line, o.display, o.display, warn.LineRef(o.line))
			} else {
				c.popChecks(o)
			}
			continue
		}
		if structuralClose {
			var fix *warn.Fix
			if closable && c.closableAtEOF(o) {
				fix = c.guardFix(closeElementFix(o, c.opts.TagCase, tok.Offset))
			}
			if fix == nil {
				closable = false
			}
			c.emitFix("unclosed-element", tok.Line, fix, o.display, o.display, warn.LineRef(o.line))
		} else {
			c.emit("element-overlap", tok.Line, display, warn.LineRef(tok.Line), o.display, warn.LineRef(o.line))
			c.pushPending(o)
		}
	}
	c.popChecks(matched)
}

// willRewriteEndTag predicts whether this end tag will be reported
// with a fix that deletes or renames the whole tag (empty-element-
// close, unmatched-close, or the heading-mismatch rename), so the
// tag-case check can withhold its in-span rewrite — a case fix inside
// a deleted or renamed span would win the conflict and block the real
// fix. It mirrors the dispatch below with read-only stack scans.
func (c *Checker) willRewriteEndTag(sym htmltoken.Sym, info *htmlspec.ElementInfo) bool {
	if info == nil {
		return false // unknown-element path, no deletion fix
	}
	// A spec element's name has a Sym, so the Sym tables answer alone.
	if info.Empty {
		return true // empty-element-close deletes the tag
	}
	if c.inElement(sym) != nil {
		return false // matches an open element
	}
	if headingLevel(info.Name) > 0 {
		if t := c.top(); t != nil && headingLevel(t.name) > 0 {
			// heading-mismatch path: a safe rename rewrites the name
			// span (and restores the configured case along the way);
			// an unsafe one attaches no fix, so the case fix may run.
			return headingRenameSafe(t)
		}
	}
	if c.pendingTop[sym] >= 0 {
		return false // resolves a pending overlap silently
	}
	return true // unmatched-close deletes the tag
}

// noteHeadPop records the offset at which the HEAD element ended —
// the point where the meta-in-body relocation fix can insert head
// content. Only the first HEAD counts (a second one is a once-only
// error anyway).
func (c *Checker) noteHeadPop(o *open, off int) {
	if o.name == "head" && c.headInsertPos < 0 {
		c.headInsertPos = off
	}
}

// unmatchedClose handles a close tag with no matching open element:
// heading cross-matching, secondary-stack resolution, and finally the
// unmatched-close message.
func (c *Checker) unmatchedClose(tok *htmltoken.Token, name, display string, unknown bool) {
	// </H2> closing an open <H1> is reported as a malformed heading
	// rather than a stray close tag. The fix renames the close tag to
	// the open heading's name — length-preserving (headings are all
	// two bytes), so it needs no odd-quotes guard — gated on the
	// renamed close popping cleanly through popChecks on a re-lint.
	if headingLevel(name) > 0 {
		if t := c.top(); t != nil && headingLevel(t.name) > 0 {
			var fix *warn.Fix
			if headingRenameSafe(t) {
				fix = renameCloseFix(tok, t, c.opts.TagCase)
			}
			c.emitFix("heading-mismatch", tok.Line, fix, t.display, display)
			c.truncateStack(len(c.stack) - 1)
			return
		}
	}

	// Tags moved to the secondary stack resolve silently: their
	// overlap has already been reported. Content checks (anchor
	// text, title length) still run on resolution. takePending
	// nil-marks the slot — deleting mid-slice here cost a tail copy
	// per close, quadratic under a close-tag storm.
	if o := c.takePending(tok.Sym); o != nil {
		c.popChecks(o)
		return
	}

	if unknown {
		c.emit("unknown-element", tok.Line, display)
		return
	}
	// A stray close tag is a no-op on the element stack; deleting it
	// is always safe.
	c.emitFix("unmatched-close", tok.Line, c.guardFix(deleteTagFix("remove unmatched close tag", tok)), display)
}

// popChecks runs the checks performed when an element leaves the stack
// in an orderly way: empty containers, TITLE content, content-free
// anchor text.
func (c *Checker) popChecks(o *open) {
	if o.info == nil {
		return
	}
	if !o.content && !o.info.Empty && !o.info.EmptyOK {
		if o.name == "title" {
			c.emit("empty-title", o.line)
		} else {
			c.emit("empty-container", o.line, o.display)
		}
	}
	switch {
	case o.name == "title":
		c.checkTitleText(o)
	case o.name == "a":
		c.checkAnchorText(o)
	case headingLevel(o.name) > 0:
		c.checkContainerWhitespace(o)
	}
}

// checkContainerWhitespace reports leading or trailing whitespace in
// the content of a container such as a heading (style, off by
// default). The leading/trailing test uses the historical " \t\r\n"
// set; the emptiness gate is full Unicode whitespace, as before.
func (c *Checker) checkContainerWhitespace(o *open) {
	raw := o.text
	if len(bytes.TrimSpace(raw)) == 0 {
		return
	}
	if isStyleSpace(raw[0]) {
		c.emit("container-whitespace", o.line, "leading", o.display)
	}
	if isStyleSpace(raw[len(raw)-1]) {
		c.emit("container-whitespace", o.line, "trailing", o.display)
	}
}

// isStyleSpace matches the whitespace set the container-whitespace
// check has always used.
func isStyleSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\n'
}

// checkTitleText checks the accumulated TITLE content length.
func (c *Checker) checkTitleText(o *open) {
	limit := c.opts.TitleLength
	if limit <= 0 {
		limit = defaultTitleLength
	}
	if n := len(bytes.TrimSpace(o.text)); n > limit {
		c.emit("title-length", o.line, n, limit)
	}
}

// checkAnchorText checks anchor content for content-free phrases and
// sloppy whitespace.
func (c *Checker) checkAnchorText(o *open) {
	trimmed := bytes.TrimSpace(o.text)
	if len(trimmed) == 0 {
		return
	}
	if len(trimmed) != len(o.text) {
		c.emit("anchor-whitespace", o.line)
	}
	if c.isHereText(trimmed) {
		c.emit("here-anchor", o.line, string(trimmed))
	}
}

// isHereText reports whether anchor text, whitespace-normalised and
// lower-cased, is one of the content-free phrases. Anchor text that is
// already normalised — pure ASCII, no upper-case letters, no
// whitespace beyond single spaces, the overwhelmingly common shape —
// is matched without copying; anything else takes the exact
// Fields/ToLower path the check has always used.
func (c *Checker) isHereText(trimmed []byte) bool {
	if anchorTextNormalised(trimmed) {
		if hereWords[string(trimmed)] {
			return true
		}
		for _, w := range c.opts.HereWords {
			if ascii.EqualFoldBytes(trimmed, w) {
				return true
			}
		}
		return false
	}
	norm := strings.Join(strings.Fields(strings.ToLower(string(trimmed))), " ")
	for _, w := range c.opts.HereWords {
		if norm == strings.ToLower(w) {
			return true
		}
	}
	return hereWords[norm]
}

// anchorTextNormalised reports whether b is already in normalised
// form: ASCII-only, no upper-case letters, and no whitespace other
// than single spaces. Non-ASCII bytes and exotic whitespace send the
// text down the exact slow path instead.
func anchorTextNormalised(b []byte) bool {
	for i := 0; i < len(b); i++ {
		c := b[i]
		switch {
		case c >= 0x80 || 'A' <= c && c <= 'Z':
			return false
		case c == '\t' || c == '\r' || c == '\n' || c == '\f' || c == '\v':
			return false
		case c == ' ' && i+1 < len(b) && b[i+1] == ' ':
			return false
		}
	}
	return true
}
