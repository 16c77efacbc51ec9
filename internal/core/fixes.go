package core

import (
	"bytes"
	"slices"
	"strings"

	"weblint/internal/ascii"
	"weblint/internal/fixit"
	"weblint/internal/htmlspec"
	"weblint/internal/htmltoken"
	"weblint/internal/warn"
)

// This file builds the machine-applicable fixes the checker attaches
// to diagnostics. Every builder runs on the cold path — only when its
// check has already fired — and must obey two rules:
//
//  1. Replacement text never aliases the checked source (messages own
//     everything they carry; lint.Linter.Check callers may recycle
//     the buffer the moment the check returns).
//  2. Applying the fix must make the finding disappear on a re-lint
//     WITHOUT introducing any new finding. Where that cannot be
//     guaranteed (a close tag whose insertion would expose an
//     empty-container message, a value that cannot be quoted safely),
//     no fix is attached: a correct diagnostic without a fix beats a
//     fix that needs fixing.

// guardFix withholds a length-changing fix whose edits touch the
// document at or after the first odd-quotes recovery point (see
// Checker.oddQuotesAt): the recovered tag's extent depends on byte
// distances that such an edit would shift. Edits strictly before the
// recovery point only move the recovered region wholesale — every
// distance the recovery heuristics measured is preserved — so those
// fixes stay attached. The guard is positional, not temporal: fixes
// are emitted in token order, so a fix emitted before any recovery has
// been seen necessarily edits before any later recovery point.
// Length-preserving fixes (case rewrites) bypass it.
func (c *Checker) guardFix(fix *warn.Fix) *warn.Fix {
	if fix == nil || c.oddQuotesAt < 0 {
		return fix
	}
	for _, e := range fix.Edits {
		// An edit is distance-sensitive when it removes or replaces a
		// byte at/after the recovery point (End > at) or inserts at or
		// after it (Start >= at). An insertion exactly at the boundary
		// lands before the recovered tag, but the recovered tag's own
		// fixes anchor there too; withholding at the boundary keeps the
		// rule simple and safe.
		if e.End > c.oddQuotesAt || e.Start >= c.oddQuotesAt {
			return nil
		}
	}
	return fix
}

// singleEdit builds a one-edit fix.
func singleEdit(label string, start, end int, text string) *warn.Fix {
	return &warn.Fix{Label: label, Edits: []warn.Edit{{Start: start, End: end, Text: text}}}
}

// caseFix rewrites a name span to the wanted case ("upper"/"lower").
// ASCII folding, deliberately: it matches the ascii.IsUpper/IsLower
// predicates that trigger the emission, and — unlike the Unicode
// fold, where e.g. U+212A Kelvin shrinks to "k" — it never changes
// byte length, the invariant that exempts case fixes from the
// odd-quotes distance guard.
func caseFix(label, name string, off int, want string) *warn.Fix {
	cased := ascii.ToLower(name)
	if want == "upper" {
		cased = ascii.ToUpper(name)
	}
	return singleEdit(label, off, off+len(name), cased)
}

// quoteValueFix wraps an unquoted attribute value in double quotes.
// The value must not itself contain a quote character (the caller
// checks). One span replacement, not two insertions: a zero-width
// insert at the value's end offset could land at the same point as a
// tag-end insertion (a value ending right before '>'), where relative
// order would depend on emission order.
func quoteValueFix(at *htmltoken.Attr) *warn.Fix {
	return singleEdit("quote attribute value",
		at.ValOffset, at.ValOffset+len(at.Value), `"`+at.Value+`"`)
}

// requoteValueFix replaces single-quote delimiters with double quotes,
// as one replacement spanning quotes and value.
func requoteValueFix(at *htmltoken.Attr) *warn.Fix {
	return singleEdit("use double quotes",
		at.ValOffset-1, at.ValOffset+len(at.Value)+1, `"`+at.Value+`"`)
}

// quotableValue reports whether an attribute value can be wrapped in
// double quotes without escaping.
func quotableValue(v string) bool {
	return !strings.ContainsAny(v, `"'`)
}

// attrEnd returns the byte offset one past the attribute's last byte
// (the closing quote when there is one).
func attrEnd(at *htmltoken.Attr) int {
	if !at.HasValue {
		return at.Offset + len(at.Name)
	}
	end := at.ValOffset + len(at.Value)
	if at.Quote != 0 && !at.UnterminatedQuote {
		end++
	}
	return end
}

// deleteAttrFix removes the repeated attribute tok.Attrs[i] (name
// and value) from its tag. When only whitespace and slashes follow it,
// the attribute the deletion leaves last ends the tag, and a '/' there
// would become a spurious trailing slash with a fix of its own, so a
// second apply pass would rewrite the tag again. The tokenizer reads
// the '/' of `<A B=""/ B>` as a stray attribute named "/": the fix
// deletes such strays too, from the end of the attribute before them,
// in one edit per gap between the repeats that their own deletions
// remove. When the attribute left last ends in '/' itself
// (`<A B X/ B>`), the fix is withheld, unless that '/' ends a value
// that is about to be quoted.
func deleteAttrFix(tok *htmltoken.Token, i int) *warn.Fix {
	const label = "remove repeated attribute"
	at := &tok.Attrs[i]
	e := warn.Edit{Start: at.Offset, End: attrEnd(at)}
	if !onlySlashesAfter(tok, e.End) {
		return singleEdit(label, e.Start, e.End, "")
	}
	var edits []warn.Edit
	for k := i - 1; k >= 0; k-- {
		p := &tok.Attrs[k]
		if straySlash(p) {
			e.Start = -1 // set at the next attribute back
			continue
		}
		if e.Start < 0 {
			e.Start = attrEnd(p)
		}
		if e.Start < e.End {
			edits = append(edits, e)
		}
		first := firstOfName(tok.Attrs[:k], p.Lower)
		if !first && deletableAttr(tok, p) {
			e = warn.Edit{Start: p.Offset, End: p.Offset}
			continue
		}
		if tok.Raw[attrEnd(p)-1-tok.Offset] == '/' && !(p.HasValue && first && quotableValue(p.Value)) {
			return nil
		}
		break
	}
	slices.Reverse(edits)
	return &warn.Fix{Label: label, Edits: edits}
}

// straySlash reports an "attribute" whose name is only slashes: XHTML
// slash noise the tokenizer read as a name, not an attribute.
func straySlash(at *htmltoken.Attr) bool {
	return !at.HasValue && strings.Trim(at.Name, "/") == ""
}

// onlySlashesAfter reports whether nothing but whitespace and slashes
// lies between byte offset off and the tag's closing '>'.
func onlySlashesAfter(tok *htmltoken.Token, off int) bool {
	for i := off - tok.Offset; i < len(tok.Raw)-1; i++ {
		if !isSpaceByte(tok.Raw[i]) && tok.Raw[i] != '/' {
			return false
		}
	}
	return true
}

// deletableAttr reports whether removing the attribute re-tokenizes
// the rest of the tag unchanged. A recovered "attribute" whose name
// embeds a quote character, an unquoted value carrying one, or a
// value whose closing quote never arrived would shift the tag's
// quoting balance; and when the next non-space byte after the
// attribute is '=', deleting it would make the PRECEDING attribute
// bind to that stray '='. A repeated stray slash is left to slashFix
// or to the deletion of a later attribute, which takes it along: its
// own deletion would overlap theirs.
func deletableAttr(tok *htmltoken.Token, at *htmltoken.Attr) bool {
	if strings.ContainsAny(at.Name, `"'`) || at.UnterminatedQuote || straySlash(at) {
		return false
	}
	if at.HasValue && at.Quote == 0 && strings.ContainsAny(at.Value, `"'`) {
		return false
	}
	for i := attrEnd(at) - tok.Offset; i < len(tok.Raw); i++ {
		if isSpaceByte(tok.Raw[i]) {
			continue
		}
		return tok.Raw[i] != '='
	}
	return true
}

// deleteTagFix removes a whole tag token.
func deleteTagFix(label string, tok *htmltoken.Token) *warn.Fix {
	return singleEdit(label, tok.Offset, tok.Offset+len(tok.Raw), "")
}

// tagInsertPos returns the byte offset at which new attribute text
// can be inserted into a tag: just before the terminating '>', or —
// for an XHTML-style tag — before the whole trailing slash/space run.
// That run is exactly what slashFix deletes, and a deletion's START
// boundary is where a zero-width insertion coexists with it (inserting
// anywhere inside the run would conflict the two fixes away). Returns
// -1 when the tag has no safe insertion point (where slashRun refuses,
// as slashFix does).
func tagInsertPos(tok *htmltoken.Token) int {
	end := tok.Offset + len(tok.Raw)
	if tok.Unterminated {
		return end
	}
	if !tok.SlashClose {
		return end - 1
	}
	start, _, ok := slashRun(tok)
	if !ok {
		return -1
	}
	return tok.Offset + start
}

// slashRun finds the trailing run of slashes and whitespace before a
// terminated tag's '>': where it starts in tok.Raw and how many
// slashes it holds. The tokenizer strips only the last slash, so when
// the tag's last attribute (stray slashes aside) has an unquoted value
// reaching into the run, that value keeps its slashes and the run
// starts after it: at the last slash when the value is empty
// (`<A B= />`), where the empty value's quoting fix inserts. Without
// the run, a value other than a lone '/' right after its '=' would end
// in a slash the tokenizer strips, so ok is false then unless the
// tag's other fixes quote or delete that attribute, which they do
// whenever its attributes are not garbled.
func slashRun(tok *htmltoken.Token) (start, slashes int, ok bool) {
	j := len(tok.Raw) - 2 // before the '>'
	for j >= 0 && (isSpaceByte(tok.Raw[j]) || tok.Raw[j] == '/') {
		if tok.Raw[j] == '/' {
			slashes++
		}
		j--
	}
	for k := len(tok.Attrs) - 1; k >= 0; k-- {
		at := &tok.Attrs[k]
		if straySlash(at) {
			continue
		}
		if end := attrEnd(at) - tok.Offset; at.HasValue && at.Quote == 0 && end > j+1 {
			lone := at.Value == "/" && tok.Raw[end-2] == '='
			return end, slashes, at.Value == "" || lone || !attrsGarbled(tok)
		}
		break
	}
	return j + 1, slashes, true
}

// insertAttrFix inserts ` NAME=""` before the tag's terminator. The
// attribute name follows the configured attribute case; the historical
// upper case is the default. Nil when the tag has no safe insertion
// point.
func insertAttrFix(tok *htmltoken.Token, name, attrCase string) *warn.Fix {
	pos := tagInsertPos(tok)
	if pos < 0 {
		return nil
	}
	cased := strings.ToUpper(name)
	if attrCase == "lower" {
		cased = strings.ToLower(name)
	}
	return singleEdit("insert "+cased+`=""`, pos, pos, " "+cased+`=""`)
}

// slashFix removes the spurious trailing '/' of a tag — the whole
// trailing run of slashes and whitespace (slashRun), since the
// tokenizer strips only one slash per parse and removing just one from
// "//" would leave the next re-lint reporting spurious-slash again.
func slashFix(tok *htmltoken.Token) *warn.Fix {
	if tok.Unterminated {
		return nil
	}
	start, slashes, ok := slashRun(tok)
	if !ok || slashes == 0 {
		return nil
	}
	return singleEdit("remove trailing '/'", tok.Offset+start, tok.Offset+len(tok.Raw)-1, "")
}

// metacharFix replaces one literal metacharacter byte with its entity.
func metacharFix(off int, entity string) *warn.Fix {
	return singleEdit("write "+entity, off, off+1, entity)
}

// closeElementFix inserts a closing tag at byte offset at — the end
// of the document for Finish-time unclosed elements, or just before a
// structural close tag that forced the element shut. The tag name
// follows the configured tag case (upper by default, matching the
// display name the message quotes).
func closeElementFix(o *open, tagCase string, at int) *warn.Fix {
	name := o.display
	if tagCase == "lower" {
		name = o.name
	}
	return singleEdit("insert </"+o.display+">", at, at, "</"+name+">")
}

// renameCloseFix rewrites the name of a close tag to the open
// element's name — the heading-mismatch remediation (</H2> closing an
// open <H1> becomes </H1>). Heading names are all two bytes, so the
// rewrite is length-preserving and exempt from the odd-quotes distance
// guard, like the case fixes. The replacement follows the configured
// tag case (upper display form by default).
func renameCloseFix(tok *htmltoken.Token, o *open, tagCase string) *warn.Fix {
	name := o.display
	if tagCase == "lower" {
		name = o.name
	}
	return singleEdit("rename to </"+o.display+">",
		tok.Offset+2, tok.Offset+2+len(tok.Name), name)
}

// headingRenameSafe reports whether renaming a mismatched heading
// close tag to the open heading's name is guaranteed not to surface a
// new finding. The mismatch path pops the open element silently; after
// the rename a re-lint pops it through popChecks, so the element must
// survive those checks: it needs content (else empty-container) and
// its text must not carry the leading/trailing whitespace the
// container-whitespace check reports. The gates test the text itself,
// not rule enablement — a pedantic re-lint must stay clean too.
func headingRenameSafe(o *open) bool {
	if !o.content {
		return false
	}
	raw := o.text
	if len(bytes.TrimSpace(raw)) == 0 {
		return true // whitespace-only text: neither check fires
	}
	return !isStyleSpace(raw[0]) && !isStyleSpace(raw[len(raw)-1])
}

// divertFix reroutes a fix into the pending relocation's cure set when
// tok is the tag being relocated (the message then goes out fixless:
// its problem is cured inside the relocated text instead). Any other
// tag's fix passes through unchanged. Length-preserving fix sites use
// it directly; length-changing sites compose it with guardFix via
// tagFix.
func (c *Checker) divertFix(tok *htmltoken.Token, fix *warn.Fix) *warn.Fix {
	if fix != nil && c.relocateTok == tok {
		c.relocateFixes = append(c.relocateFixes, fix)
		return nil
	}
	return fix
}

// tagFix is the attach path for length-changing fixes that edit inside
// a start tag: diverted into the relocation when the tag is being
// moved, odd-quotes-guarded otherwise.
func (c *Checker) tagFix(tok *htmltoken.Token, fix *warn.Fix) *warn.Fix {
	if fix == nil {
		return nil
	}
	if c.relocateTok == tok {
		return c.divertFix(tok, fix)
	}
	return c.guardFix(fix)
}

// planMetaRelocation decides, before any in-tag fix site runs, whether
// this META start tag will be relocated into the HEAD by the
// meta-in-body fix. It must see the same placement state the
// meta-in-body emission tests (a META implies no closes, so evaluating
// before applyImpliedClose is equivalent), and it requires a cleanly
// tokenized tag, a recorded HEAD insertion point, and no odd-quotes
// recovery so far — the relocation edits at and before the current
// token, so a recovery seen later cannot be crossed.
func (c *Checker) planMetaRelocation(tok *htmltoken.Token, sym htmltoken.Sym, info *htmlspec.ElementInfo) bool {
	if sym != symMeta || info == nil || !info.HeadOnly {
		return false
	}
	if tok.OddQuotes || tok.Unterminated || attrsGarbled(tok) {
		return false
	}
	if c.headInsertPos < 0 || c.oddQuotesAt >= 0 {
		return false
	}
	if c.inElement(symHead) != nil || !(c.seenBody || c.inElement(symBody) != nil) {
		return false // not a meta-in-body site
	}
	// The tag counts as its direct parent's content; moving the
	// parent's ONLY content away would surface empty-container (or
	// empty-title) on a re-lint. Content arriving later would keep the
	// parent non-empty, but that is unknowable here — withhold.
	if t := c.top(); t != nil && !t.content && t.info != nil && !t.info.EmptyOK {
		return false
	}
	c.relocateTok = tok
	c.relocateFixes = c.relocateFixes[:0]
	return true
}

// metaRelocationFix builds the meta-in-body fix: insert the tag's text
// — with every diverted cure applied by fixit's rules, so it reads as
// applying them in place would — at the HEAD insertion point (a
// zero-width insertion, coexisting with close-tag fixes anchored
// there), and delete the tag at its original location. The insertion
// text is built fresh, never aliasing the checked source.
func (c *Checker) metaRelocationFix(tok *htmltoken.Token) *warn.Fix {
	cleaned := fixit.ApplyAt(tok.Raw, tok.Offset, c.relocateFixes)
	c.relocateTok = nil
	c.relocateFixes = c.relocateFixes[:0]
	return &warn.Fix{Label: "move <META> into HEAD", Edits: []warn.Edit{
		{Start: c.headInsertPos, End: c.headInsertPos, Text: cleaned},
		{Start: tok.Offset, End: tok.Offset + len(tok.Raw), Text: ""},
	}}
}

// closableAtEOF reports whether inserting a close tag for o (at end
// of document or before the structural close that forced it shut) is
// guaranteed not to surface a new finding: the element must have
// content (or tolerate emptiness), and must not be one of the
// elements whose orderly close runs content checks (TITLE length,
// anchor text, heading whitespace) that the checker cannot predict
// won't fire.
func (c *Checker) closableAtEOF(o *open) bool {
	if o.info == nil {
		return false
	}
	if !o.content && !o.info.EmptyOK {
		return false
	}
	if o.name == "title" || o.name == "a" || headingLevel(o.name) > 0 {
		return false
	}
	return true
}

// firstOfName reports whether none of the earlier attributes shares
// this lower-case name — i.e. the attribute is not a repeat whose fix
// will be a deletion.
func firstOfName(earlier []htmltoken.Attr, lower string) bool {
	for i := range earlier {
		if earlier[i].Lower == lower {
			return false
		}
	}
	return true
}

// attrsGarbled reports whether the tag's attribute parse is suspect:
// an attribute NAME containing a quote character means the tokenizer
// balanced quotes across what parseAttrs then read as names, and a
// value whose closing quote never arrived will absorb whatever text
// follows it on a re-parse. Any fix editing inside such a tag —
// including inserting new attributes before its terminator — could
// re-tokenize differently, so none is attached.
func attrsGarbled(tok *htmltoken.Token) bool {
	for i := range tok.Attrs {
		if strings.ContainsAny(tok.Attrs[i].Name, `"'`) || tok.Attrs[i].UnterminatedQuote {
			return true
		}
	}
	return false
}

// isSpaceByte matches the tokenizer's intra-tag whitespace set.
func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}
