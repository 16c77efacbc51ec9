// Package core implements weblint's checker engine: a stack machine
// with an ad-hoc parser which uses various heuristics to keep things
// together as it goes along. The heuristics are based on commonly-made
// mistakes in HTML, and exist to minimise the number of warning
// cascades, where a single problem generates a flurry of error
// messages.
//
// The file being processed is tokenised into start tags (possibly with
// attributes), text content, and end tags. When an opening tag is
// seen, it is pushed onto the main stack. Closing tags result in the
// stack being popped. A secondary stack comes into play when
// unexpected things happen, like overlapping elements: it holds
// unresolved tags, and where they appeared.
package core

import (
	"strings"

	"weblint/internal/ascii"
	"weblint/internal/htmlspec"
	"weblint/internal/htmltoken"
	"weblint/internal/plugin"
	"weblint/internal/warn"
)

// Options configures one checking run.
type Options struct {
	// Spec is the HTML version to check against; nil means the
	// default (HTML 4.0).
	Spec *htmlspec.Spec
	// Filename names the document in messages.
	Filename string

	// DisableCascadeSuppression turns off the secondary stack and
	// the overlap heuristics, reporting every forced pop
	// individually. It exists for the E5 ablation experiment; real
	// use keeps it false.
	DisableCascadeSuppression bool
	// DisableImpliedClose turns off silent popping of elements with
	// omissible close tags (also for E5); every implied close is
	// then reported as unclosed-element.
	DisableImpliedClose bool

	// TagCase enables the tag-case style check when set to "upper"
	// or "lower".
	TagCase string
	// AttrCase enables the attribute-case style check when set to
	// "upper" or "lower".
	AttrCase string
	// TitleLength is the TITLE length the title-length check warns
	// beyond; 0 means the default of 64.
	TitleLength int
	// HereWords extends the built-in list of content-free anchor
	// texts checked by here-anchor.
	HereWords []string

	// Plugins are content checkers for non-HTML content embedded in
	// the document (style sheets, scripts) — the paper's Section 6.1
	// plugin mechanism.
	Plugins []plugin.ContentChecker
}

// open is one entry on the main or secondary stack.
type open struct {
	name    string        // lower-case element name
	sym     htmltoken.Sym // name's Sym, NoSym outside the vocabulary
	display string        // upper-case display name for messages
	line    int
	col     int
	info    *htmlspec.ElementInfo // nil for unknown elements
	content bool                  // element has direct content
	text    []byte                // accumulated text (TITLE, A); reused
	// prevSame chains same-named entries: while the entry is on the
	// main stack it is the stack index of the next-deeper element with
	// this name (-1 for none; see docState.openTop), and after a move
	// to the secondary stack it is rewritten to the analogous pending
	// index (see docState.pendingTop).
	prevSame int
}

// requiresClose reports whether popping this element without its close
// tag deserves an unclosed-element message.
func (o *open) requiresClose() bool {
	if o.info == nil {
		return false // unknown element: suppress cascades
	}
	return !o.info.Empty && !o.info.OmitClose
}

// Checker checks one document. Construct with New; re-arm for further
// documents with Reset, which retains the internal maps, stacks and
// buffers so a pooled checker stops allocating once warm.
//
// Everything that depends on the document seen so far lives in the
// embedded docState, which Reset clears and a Snapshot captures. The
// fields declared here belong to the checking session instead — set by
// Reset, an allocation pool, or scratch scoped to a single token — and
// neither a Snapshot nor LiveEquals looks at them.
type Checker struct {
	docState

	opts Options
	spec *htmlspec.Spec
	em   *warn.Emitter
	file string

	// slab backs the open entries pointed at by stack and pending.
	// Entries are handed out in document order and recycled wholesale
	// by Reset; their text buffers survive recycling.
	slab []open

	// attrSeen holds, at each attribute's Sym, the first attribute of
	// that name on the tag being checked, and attrSeenByName the same
	// for NoSym names: per-tag duplicate tracking, reused. checkAttrs
	// clears what it set once the tag is checked.
	attrSeen       []*htmltoken.Attr
	attrSeenByName map[string]*htmltoken.Attr

	// relocateTok, when non-nil, is the start tag currently being
	// checked that will be relocated by a meta-in-body fix. Fixes the
	// attribute checks build for this tag are diverted into
	// relocateFixes (their messages go out fixless) and applied to the
	// tag's text when the relocation fix is built, so the tag is moved
	// AND cured in one apply pass — two fixes editing the same span
	// would conflict, and fixit would drop one of them. Both fields
	// are scoped to one startTag call.
	relocateTok   *htmltoken.Token
	relocateFixes []*warn.Fix
}

// docState is the checker's document-dependent state: what Reset
// clears, a Snapshot captures and Restore rewinds. Where a new field
// goes decides how all three treat it, with no further code:
//   - a slice or map field is listed in copyFrom, which gives it
//     storage of its own;
//   - a line or byte offset goes in docPositions and is mapped across
//     an edit by docPositions.shift;
//   - anything else goes in docFlags, which LiveEquals compares with
//     one ==.
type docState struct {
	stack   []*open
	pending []*open // the secondary stack of unresolved tags

	// openTop holds, at an element name's Sym, the stack index of its
	// nearest open instance, or -1; open.prevSame chains to the
	// instance below. openTopByName is the same for NoSym names, so
	// two different unknown elements still match only their own close
	// tags. They make inElement and the end-tag match lookup O(1) —
	// per-close stack scans were superlinear on error-dense documents
	// whose unclosed containers pile the stack deep. Maintained by
	// pushOpen and truncateStack, which every stack mutation must go
	// through.
	openTop       []int32
	openTopByName map[string]int
	// pendingTop is the same chain over the secondary stack. Only an
	// element that requires its close tag moves there, which takes a
	// spec entry and so a Sym: no NoSym name is ever pending. Resolved
	// entries are nil-marked in pending instead of deleted — the
	// mid-slice delete per resolved close was quadratic under
	// close-tag storms.
	pendingTop []int32
	// accum holds the stack indices (ascending) of the open elements
	// that accumulate text content (TITLE, A, headings), so text
	// tokens append to the nearest one without scanning the stack.
	accum []int

	seenOnce map[string]int // once-only element -> first line

	ids     map[string]int // ID attribute value -> first line
	anchors map[string]int // A NAME value -> first line

	metaNames map[string]bool

	docPositions
	docFlags
}

// docPositions are the document positions in docState: 1-based lines
// and byte offsets, which an edit before them moves.
type docPositions struct {
	lastLine int
	// lastOffset is one past the last byte of the last token seen.
	// Tokens partition the document, so at Finish it is the document
	// length — where the EOF close-tag fixes insert.
	lastOffset int
	// oddQuotesAt is the byte offset of the first token recovered from
	// an unbalanced quote, or -1 while none has been seen. The
	// tokenizer's recovery budget (quoteMaxBytes/quoteMaxNewlines)
	// makes the extent of an odd-quoted tag sensitive to how far away
	// later bytes are, so a length-CHANGING fix editing at or beyond
	// that offset could re-tokenize the document differently. Edits
	// strictly before it only shift the recovered region wholesale —
	// every in-region distance is preserved — so fixes there stay
	// attached; guardFix enforces the boundary per edit.
	// Length-preserving fixes (case rewrites) bypass the guard
	// entirely.
	oddQuotesAt int
	// headInsertPos is the byte offset at which head-only content can
	// be inserted and still land inside the HEAD element: the start of
	// the close (or closing-implying) tag that ended it. -1 until a
	// real HEAD element has been popped; the meta-in-body relocation
	// fix is withheld without it.
	headInsertPos int
}

// docFlags is the rest of docState: plain values that no edit moves.
// All of them are comparable, so the whole struct compares with ==.
type docFlags struct {
	firstElement bool // a non-doctype element has been seen
	doctypeSeen  bool

	seenHTML  bool
	seenHead  bool
	seenBody  bool
	seenTitle bool

	seenFrameset bool
	seenNoframes bool

	headContent bool // any head-only element seen

	lastHeading     int // last heading level seen (0 = none)
	lastHeadingName string

	// lastUnterminated records that the final token was cut off by
	// end of input (malformed tag, unterminated comment or quote).
	// Text inserted at EOF would be absorbed INTO that construct on a
	// re-parse, so the EOF close-tag fixes are withheld.
	lastUnterminated bool

	// pendingRawText is set after a raw-text element (SCRIPT, STYLE,
	// ...) is pushed. The tokenizer emits no token for an empty raw
	// body (<script></script>), so when the next token is anything but
	// raw text, the element is marked as having content here — exactly
	// what the zero-length raw token used to do — keeping
	// empty-container and the EOF close-tag fixes unchanged. A raw
	// element cut off at end of input leaves the flag set and the
	// element contentless, also as before.
	pendingRawText bool
}

// freshState is the state of a checker that has seen nothing yet.
var freshState = docState{
	openTop:      noTops(),
	pendingTop:   noTops(),
	docPositions: docPositions{lastLine: 1, oddQuotesAt: -1, headInsertPos: -1},
}

// noTops returns a Sym-indexed chain head table with no element in it.
func noTops() []int32 {
	tops := make([]int32, htmltoken.NumSyms())
	for i := range tops {
		tops[i] = -1
	}
	return tops
}

// copyFrom makes d an independent copy of src: one struct copy, after
// which every slice and map field gets storage of its own — d's
// previous storage, reused where d had any.
func (d *docState) copyFrom(src *docState) {
	old := *d
	*d = *src
	d.stack = copyOpens(old.stack, src.stack)
	d.pending = copyOpens(old.pending, src.pending)
	d.openTop = append(old.openTop[:0], src.openTop...)
	d.openTopByName = restoreMap(old.openTopByName, src.openTopByName)
	d.pendingTop = append(old.pendingTop[:0], src.pendingTop...)
	d.accum = append(old.accum[:0], src.accum...)
	d.seenOnce = restoreMap(old.seenOnce, src.seenOnce)
	d.ids = restoreMap(old.ids, src.ids)
	d.anchors = restoreMap(old.anchors, src.anchors)
	d.metaNames = restoreMap(old.metaNames, src.metaNames)
}

// New returns a Checker which reports through em.
func New(em *warn.Emitter, opts Options) *Checker {
	c := &Checker{
		attrSeen:       make([]*htmltoken.Attr, htmltoken.NumSyms()),
		attrSeenByName: map[string]*htmltoken.Attr{},
	}
	c.Reset(em, opts)
	return c
}

// Reset re-arms the checker for a new document reporting through em,
// keeping allocated state (maps, stacks, text buffers) for reuse.
func (c *Checker) Reset(em *warn.Emitter, opts Options) {
	spec := opts.Spec
	if spec == nil {
		spec = htmlspec.Default()
	}
	file := opts.Filename
	if file == "" {
		file = "-"
	}
	c.opts = opts
	c.spec = spec
	c.em = em
	c.file = file
	c.docState.copyFrom(&freshState)
	c.clearScratch()
}

// clearScratch empties the session-scoped state that depends on the
// document: it recycles the slab (nothing live points into it once the
// stacks are rebuilt) and clears the per-token scratch.
func (c *Checker) clearScratch() {
	c.slab = c.slab[:0]
	clear(c.attrSeen)
	clear(c.attrSeenByName)
	c.relocateTok = nil
	c.relocateFixes = c.relocateFixes[:0]
}

// Release drops every reference the checker retains into the last
// checked document — map keys, slab entry names, attribute pointers —
// while keeping the allocated capacity for reuse. Pools should call it
// before parking a checker: Reset alone truncates, leaving the old
// document's substrings reachable through spare slab capacity until
// the entry is next used.
func (c *Checker) Release() {
	c.docState.copyFrom(&freshState)
	c.clearScratch()
	slab := c.slab[:cap(c.slab)]
	for i := range slab {
		slab[i] = open{text: slab[i].text[:0]}
	}
}

// newOpen allocates a stack entry from the slab, reusing entries (and
// their text buffers) recycled by Reset.
func (c *Checker) newOpen(name string, sym htmltoken.Sym, display string, line, col int, info *htmlspec.ElementInfo) *open {
	var o *open
	if n := len(c.slab); n < cap(c.slab) {
		c.slab = c.slab[:n+1]
		o = &c.slab[n]
	} else {
		c.slab = append(c.slab, open{})
		o = &c.slab[n]
	}
	text := o.text[:0]
	*o = open{name: name, sym: sym, display: display, line: line, col: col, info: info, text: text}
	return o
}

// Check runs the checker over a whole document.
func Check(src string, em *warn.Emitter, opts Options) {
	c := New(em, opts)
	tz := htmltoken.New(src)
	c.Run(tz)
}

// Run feeds every token from tz through the checker and finishes the
// document. It is the streaming core of Check, exposed so callers with
// pooled tokenizers and checkers can drive it without reallocating.
//
// When the emitter's sink cancels the stream (Write returned false),
// Run stops tokenizing promptly and skips the end-of-document checks:
// a cancelled check never pays for the rest of the document.
func (c *Checker) Run(tz *htmltoken.Tokenizer) {
	var tok htmltoken.Token
	for tz.NextInto(&tok) {
		c.token(&tok)
		if c.em.Cancelled() {
			return
		}
	}
	c.Finish()
}

// emit reports a message at a line in the checked file, with no column
// information.
func (c *Checker) emit(id string, line int, args ...any) {
	c.em.Emit(id, c.file, line, 0, args...)
}

// emitAt reports a message at a line and column in the checked file.
// The start-tag and attribute checks use it with tokenizer offsets so
// structured output (JSON, SARIF) carries real columns; columns never
// affect output order (see warn.SortByLine).
func (c *Checker) emitAt(id string, line, col int, args ...any) {
	c.em.Emit(id, c.file, line, col, args...)
}

// emitFix reports a message carrying a machine-applicable fix. A nil
// fix degrades to a plain emit, so emission sites can hand over
// whatever their fix builder returned.
func (c *Checker) emitFix(id string, line int, fix *warn.Fix, args ...any) {
	c.em.EmitFix(id, c.file, line, 0, fix, args...)
}

// emitFixAt is emitFix with column information.
func (c *Checker) emitFixAt(id string, line, col int, fix *warn.Fix, args ...any) {
	c.em.EmitFix(id, c.file, line, col, fix, args...)
}

// token is the dispatch core; the token is passed by pointer so the
// (large) Token struct is copied once per token, not once per layer.
func (c *Checker) token(tok *htmltoken.Token) {
	if tok.EndLine > c.lastLine {
		c.lastLine = tok.EndLine
	}
	if end := tok.Offset + len(tok.Raw); end > c.lastOffset {
		c.lastOffset = end
	}
	c.lastUnterminated = tok.Unterminated
	if tok.OddQuotes && c.oddQuotesAt < 0 {
		c.oddQuotesAt = tok.Offset
	}
	if c.pendingRawText {
		c.pendingRawText = false
		if tok.Type != htmltoken.Text || !tok.RawText {
			// Empty raw body: the close tag arrived immediately, so no
			// raw-text token marked the element as having content.
			if t := c.top(); t != nil {
				t.content = true
			}
		}
	}
	switch tok.Type {
	case htmltoken.Doctype:
		c.doctype(tok)
	case htmltoken.Comment:
		c.comment(tok)
	case htmltoken.Text:
		c.text(tok)
	case htmltoken.StartTag:
		c.startTag(tok)
	case htmltoken.EndTag:
		c.endTag(tok)
	case htmltoken.Declaration, htmltoken.ProcInst:
		// SGML declarations and processing instructions are not
		// checked, but they count as markup for DOCTYPE placement.
		c.noteElement(tok.Line)
	}
}

// noteElement records that markup other than a DOCTYPE has been seen,
// emitting doctype-first exactly once at the first such token.
func (c *Checker) noteElement(line int) {
	if c.firstElement {
		return
	}
	c.firstElement = true
	if !c.doctypeSeen {
		c.emit("doctype-first", line)
	}
}

// doctype handles a <!DOCTYPE> declaration.
func (c *Checker) doctype(tok *htmltoken.Token) {
	if c.firstElement {
		c.emit("stray-doctype", tok.Line)
		return
	}
	c.doctypeSeen = true
	if !ascii.ContainsFold(tok.Text, "html") {
		c.emit("require-version", tok.Line)
	}
}

// comment checks an SGML comment token, and handles page-specific
// configuration embedded in comments (the lint tradition, one of the
// paper's Section 6.1 items):
//
//	<!-- weblint: disable img-alt -->
//	<IMG SRC="decoration.gif">
//	<!-- weblint: enable img-alt -->
func (c *Checker) comment(tok *htmltoken.Token) {
	if tok.Unterminated {
		c.emit("unterminated-comment", tok.Line, warn.LineRef(tok.Line))
		return
	}
	if body := strings.TrimSpace(tok.Text); strings.HasPrefix(body, "weblint:") {
		c.inlineDirective(strings.TrimPrefix(body, "weblint:"), tok.Line)
		return // directive comments are not style-checked
	}
	if markupInComment(tok.Text) {
		c.emit("markup-in-comment", tok.Line)
	}
	if strings.Contains(tok.Text, "--") {
		c.emit("nested-comment", tok.Line)
	}
}

// inlineDirective applies one "weblint:" comment directive. The
// mutation is scoped to this check run: it goes into the emitter's
// Overrides, never into the shared enablement set.
func (c *Checker) inlineDirective(text string, line int) {
	fields := strings.Fields(text)
	if len(fields) < 2 {
		c.emit("bad-inline-directive", line, strings.TrimSpace(text))
		return
	}
	var apply func(string) error
	switch fields[0] {
	case "enable":
		apply = c.em.Enable
	case "disable":
		apply = c.em.Disable
	default:
		c.emit("bad-inline-directive", line, strings.TrimSpace(text))
		return
	}
	for _, id := range fields[1:] {
		if err := apply(strings.Trim(id, ",")); err != nil {
			c.emit("bad-inline-directive", line, strings.TrimSpace(text))
			return
		}
	}
}

// markupInComment reports whether a comment body appears to contain
// commented-out markup.
func markupInComment(text string) bool {
	for i := 0; i+1 < len(text); i++ {
		if text[i] != '<' {
			continue
		}
		c := text[i+1]
		if c == '/' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' {
			return true
		}
	}
	return false
}

// top returns the top of the main stack, or nil when empty.
func (c *Checker) top() *open {
	if len(c.stack) == 0 {
		return nil
	}
	return c.stack[len(c.stack)-1]
}

// inElement returns the nearest open element whose name has Sym sym
// on the main stack, or nil (always for NoSym). One slice index, not a
// stack scan.
func (c *Checker) inElement(sym htmltoken.Sym) *open {
	if i := c.openTop[sym]; i >= 0 {
		return c.stack[i]
	}
	return nil
}

// openIndex returns the stack index of the nearest open element with
// the given name and Sym, or -1: for a NoSym name through
// openTopByName.
func (c *Checker) openIndex(sym htmltoken.Sym, name string) int {
	if sym != htmltoken.NoSym {
		return int(c.openTop[sym])
	}
	if i, ok := c.openTopByName[name]; ok {
		return i
	}
	return -1
}

// setOpenIndex sets the openTop chain head openIndex reads.
func (c *Checker) setOpenIndex(sym htmltoken.Sym, name string, i int) {
	if sym != htmltoken.NoSym {
		c.openTop[sym] = int32(i)
	} else {
		c.openTopByName[name] = i
	}
}

// pushOpen pushes an element onto the main stack, threading the
// openTop same-name chain and the accumulating-element index stack.
func (c *Checker) pushOpen(o *open) {
	idx := len(c.stack)
	o.prevSame = c.openIndex(o.sym, o.name)
	c.setOpenIndex(o.sym, o.name, idx)
	c.stack = append(c.stack, o)
	if o.sym == symTitle || o.sym == symA || headingLevel(o.name) > 0 {
		c.accum = append(c.accum, idx)
	}
}

// truncateStack pops the main stack down to n entries, unwinding the
// openTop chains and the accum indices for everything popped. Every
// stack truncation must go through here so the indexes stay exact.
func (c *Checker) truncateStack(n int) {
	for i := len(c.stack) - 1; i >= n; i-- {
		o := c.stack[i]
		c.setOpenIndex(o.sym, o.name, o.prevSame)
	}
	c.stack = c.stack[:n]
	for len(c.accum) > 0 && c.accum[len(c.accum)-1] >= n {
		c.accum = c.accum[:len(c.accum)-1]
	}
}

// pushPending moves o, an element that requires its close tag, to the
// secondary stack, threading the pendingTop same-name chain (o has
// already left the main stack, so its prevSame link is free to reuse).
func (c *Checker) pushPending(o *open) {
	o.prevSame = int(c.pendingTop[o.sym])
	c.pendingTop[o.sym] = int32(len(c.pending))
	c.pending = append(c.pending, o)
}

// takePending resolves and returns the most recent secondary-stack
// entry whose name has Sym sym, or nil (always for NoSym). The slot is
// nil-marked; order is preserved for Finish without a mid-slice
// delete.
func (c *Checker) takePending(sym htmltoken.Sym) *open {
	i := c.pendingTop[sym]
	if i < 0 {
		return nil
	}
	o := c.pending[i]
	c.pendingTop[sym] = int32(o.prevSame)
	c.pending[i] = nil
	return o
}

// Finish runs the end-of-document checks: unclosed elements left on
// either stack, and whole-document structure checks.
func (c *Checker) Finish() {
	// Elements still open at end of document. Fixes insert the missing
	// close tags at end of document, innermost first so the inserted
	// tags nest. The chain stops at the first element that cannot be
	// closed safely: inserting a close tag for an element OUTSIDE it
	// would cross the unfixed one and change what a re-lint reports.
	// (The odd-quotes guard always withholds these: the insertion
	// point is the end of the document, behind any recovery point.)
	closable := !c.lastUnterminated
	for i := len(c.stack) - 1; i >= 0; i-- {
		o := c.stack[i]
		if o.requiresClose() {
			var fix *warn.Fix
			if closable && c.closableAtEOF(o) {
				fix = c.guardFix(closeElementFix(o, c.opts.TagCase, c.lastOffset))
			}
			if fix == nil {
				closable = false
			}
			c.emitFix("unclosed-element", c.lastLine, fix, o.display, o.display, warn.LineRef(o.line))
		} else {
			c.popChecks(o)
		}
	}
	c.truncateStack(0)
	for i := len(c.pending) - 1; i >= 0; i-- {
		o := c.pending[i]
		if o == nil {
			continue // already resolved by its own close tag
		}
		if o.requiresClose() {
			c.emit("unclosed-element", c.lastLine, o.display, o.display, warn.LineRef(o.line))
		}
	}
	c.pending = c.pending[:0]
	copy(c.pendingTop, freshState.pendingTop)

	if !c.seenHTML {
		c.emit("html-outer", 1)
	}
	if !c.seenHead && !c.headContent {
		c.emit("require-head", 1)
	}
	if !c.seenTitle {
		c.emit("require-title", 1)
	}
	if c.seenFrameset && !c.seenNoframes {
		c.emit("require-noframes", c.lastLine)
	}
	for _, name := range []string{"description", "keywords"} {
		if !c.metaNames[name] {
			c.emit("require-meta", 1, name)
		}
	}
}
