// Package warn implements weblint's warnings module: the registry of
// output messages, their categories and default enablement, message
// formatting, and the pluggable formatter mechanism that the gateway
// uses to render warnings as HTML.
//
// Every output message has a stable identifier (e.g. "element-overlap")
// which is used when enabling or disabling it, and belongs to one of
// three categories: errors identify things you should fix, warnings
// identify things you should think about fixing, and style comments can
// be configured to match local guidelines.
//
// The messages are a closed vocabulary: each takes the next dense index
// when it is registered, at most maxRules (256) of them, and a Set or
// an emitter's Overrides is a fixed-size bit array over those indexes.
// A Set built before a registration has that message off until it is
// enabled, whatever its Default.
package warn

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
)

// Category classifies an output message.
type Category int

const (
	// Error identifies incorrect use of syntax and other serious
	// problems which should be fixed.
	Error Category = iota
	// Warning identifies recommended optional syntax, potential
	// portability problems, and questionable use of HTML.
	Warning
	// Style identifies usage which is questionable under commonly
	// held style guidelines; stylistic comments are the most
	// opinionated category and several are disabled by default.
	Style
)

// String returns the lower-case category name used in terse output and
// in configuration files.
func (c Category) String() string {
	switch c {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Style:
		return "style"
	}
	return fmt.Sprintf("category(%d)", int(c))
}

// ParseCategory converts a category name ("error", "warning", "style")
// to a Category. The boolean result reports whether the name was valid.
func ParseCategory(s string) (Category, bool) {
	switch s {
	case "error", "errors":
		return Error, true
	case "warning", "warnings":
		return Warning, true
	case "style":
		return Style, true
	}
	return 0, false
}

// Def describes one registered output message.
type Def struct {
	// ID is the stable identifier used to enable or disable the
	// message, e.g. "img-alt".
	ID string
	// Category is the message severity class.
	Category Category
	// Default reports whether the message is enabled by default.
	// Messages which are esoteric or overly pedantic are registered
	// with Default false.
	Default bool
	// Format is the fmt-style template the message text is built
	// from.
	Format string
	// Explain is a longer human explanation used by verbose output
	// and by the gateway.
	Explain string

	// index is the registration order: the message's bit in a Set and
	// in an Overrides.
	index int
}

// Message is a single emitted diagnostic, positioned in a source
// document.
type Message struct {
	// ID is the identifier of the message definition this was
	// emitted from.
	ID string
	// Category is copied from the definition at emission time.
	Category Category
	// File names the checked document ("-" for stdin, a URL for
	// remote checks).
	File string
	// Line is the 1-based line the problem was detected at.
	Line int
	// Col is the 1-based column, or 0 when unknown.
	Col int
	// Text is the fully formatted message body (without file/line
	// prefix; formatters add that).
	Text string
	// Fix, when non-nil, is a machine-applicable remediation for the
	// problem: a set of byte-span edits over the original source
	// document. Emission sites attach one only when a safe mechanical
	// rewrite exists; see the fixit package for applying them.
	Fix *Fix
}

// Edit is one span replacement over the original source document:
// the bytes in [Start, End) are replaced by Text. Start == End is an
// insertion; an empty Text is a deletion. Offsets are byte offsets
// into the exact document that was checked.
type Edit struct {
	// Start is the byte offset of the first replaced byte.
	Start int `json:"start"`
	// End is one past the last replaced byte; End == Start inserts.
	End int `json:"end"`
	// Text is the replacement text.
	Text string `json:"text"`
}

// Fix is a machine-applicable remediation attached to a Message: a
// human-readable label and one or more edits which together resolve
// the finding. The edits of one fix never overlap each other; fixes
// from different messages may conflict, which fixit.Apply resolves
// deterministically (first writer wins, in stream order).
type Fix struct {
	// Label describes the rewrite, e.g. `insert ALT=""`.
	Label string `json:"label"`
	// Edits are the span replacements, in ascending Start order.
	Edits []Edit `json:"edits"`
}

// maxRules is the most messages the registry holds: a Set and an
// Overrides are fixed-size bit arrays over the messages' indexes.
const maxRules = 256

// registry holds all known message definitions, keyed by ID; defs holds
// the same definitions at their index, which is registration order.
var (
	registry = map[string]*Def{}
	defs     []*Def
)

// register adds a definition to the package registry at the next
// index. It panics on duplicate IDs, which would be a programming error
// in the tables, and beyond maxRules messages.
func register(d Def) {
	if _, dup := registry[d.ID]; dup {
		panic("warn: duplicate message id " + d.ID)
	}
	if len(defs) == maxRules {
		panic("warn: more than 256 (maxRules) message ids registered")
	}
	d.index = len(defs)
	registry[d.ID] = &d
	defs = append(defs, &d)
}

// Register adds a message definition from outside the package. It is
// the extension point content plugins use to contribute their own
// messages (the paper's Section 6.1 plugin idea); it must be called
// during init, before any Set is constructed. At most maxRules (256)
// messages can be registered, the built-in ones included; Register
// panics beyond that. A Set built before the registration has the new
// message off until it is enabled.
func Register(d Def) {
	register(d)
}

// Lookup returns the definition for id, or nil when id is not a
// registered message.
func Lookup(id string) *Def {
	return registry[id]
}

// IDs returns all registered message IDs in registration order.
func IDs() []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.ID
	}
	return out
}

// Count returns the total number of registered messages.
func Count() int { return len(defs) }

// DefaultEnabledCount returns how many registered messages are enabled
// by default.
func DefaultEnabledCount() int {
	n := 0
	for _, d := range defs {
		if d.Default {
			n++
		}
	}
	return n
}

// CountByCategory returns the number of registered messages in each
// category.
func CountByCategory() map[Category]int {
	m := map[Category]int{}
	for _, d := range defs {
		m[d.Category]++
	}
	return m
}

// ruleBits holds one bit per registered message, at its index.
type ruleBits [maxRules / 64]uint64

func (b *ruleBits) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b *ruleBits) add(i int) { b[i/64] |= 1 << (i % 64) }

// assign sets every bit of mask in b to v.
func (b *ruleBits) assign(mask *ruleBits, v bool) {
	for i := range b {
		if v {
			b[i] |= mask[i]
		} else {
			b[i] &^= mask[i]
		}
	}
}

// resolve returns the messages an enable/disable identifier names:
// "all", else a category ("errors", "style", ...), else a message ID.
// It returns an error for unknown identifiers so that configuration
// typos are surfaced to the user.
func resolve(id string) (ruleBits, error) {
	var rules ruleBits
	if cat, isCat := ParseCategory(id); id == "all" || isCat {
		for _, d := range defs {
			if id == "all" || d.Category == cat {
				rules.add(d.index)
			}
		}
		return rules, nil
	}
	d := registry[id]
	if d == nil {
		return rules, fmt.Errorf("warn: unknown warning identifier %q", id)
	}
	rules.add(d.index)
	return rules, nil
}

// Set is an enable/disable selection over the registry: one bit per
// message. The zero value enables nothing; construct with NewSet.
type Set struct {
	on ruleBits
}

// NewSet returns a Set with every message at its registered default.
func NewSet() *Set {
	s := &Set{}
	for _, d := range defs {
		if d.Default {
			s.on.add(d.index)
		}
	}
	return s
}

// AllEnabled returns a Set with every registered message enabled,
// including those disabled by default (the CLI's -pedantic mode).
func AllEnabled() *Set {
	all, _ := resolve("all")
	return &Set{on: all}
}

// Enable turns on the message with the given ID, or every message in a
// category when id names a category ("errors", "style", ...), or every
// message for "all". It returns an error for unknown identifiers.
func (s *Set) Enable(id string) error { return s.set(id, true) }

// Disable turns off the message with the given ID or category.
func (s *Set) Disable(id string) error { return s.set(id, false) }

func (s *Set) set(id string, v bool) error {
	rules, err := resolve(id)
	if err != nil {
		return err
	}
	s.on.assign(&rules, v)
	return nil
}

// Enabled reports whether the message with the given ID is currently
// enabled. Unknown IDs report false.
func (s *Set) Enabled(id string) bool {
	d := registry[id]
	return d != nil && s.on.has(d.index)
}

// EnabledIDs returns the identifiers of all enabled messages, sorted.
func (s *Set) EnabledIDs() []string {
	var out []string
	for _, d := range defs {
		if s.on.has(d.index) {
			out = append(out, d.ID)
		}
	}
	slices.Sort(out)
	return out
}

// Overrides records which messages a page's inline "weblint:"
// directives have set, and to what: a message whose bit is in set is
// enabled when its bit in on is, and every other message as the base
// Set has it. It is a plain value, copied with = and compared with ==;
// the zero value overrides nothing.
type Overrides struct {
	set, on ruleBits
}

// enabled reports whether message index i is enabled under o over base.
func (o *Overrides) enabled(base *Set, i int) bool {
	if o.set.has(i) {
		return o.on.has(i)
	}
	return base.on.has(i)
}

// Emitter streams messages, subject to an enablement Set, into a Sink.
// It is the object the checker engine reports through; the zero value
// is not useful, construct with NewEmitter.
//
// By default the emitter writes into its own internal Collector, which
// is how the slice-returning check APIs are built: run the check, then
// read Messages/CopyMessages. Installing a different destination with
// SetSink turns the same emitter into a true streaming source — each
// message is delivered the moment it is emitted, nothing accumulates,
// and a sink returning false cancels the rest of the check.
//
// The emitter holds a read-only view of its Set: it never mutates the
// set it was constructed with, so one Set can back any number of
// emitters (and checks) concurrently. Runtime enablement changes — the
// in-document "weblint:" directives — go through the emitter's own
// Enable/Disable, which record the change in Overrides private to this
// emitter.
type Emitter struct {
	base      *Set      // read-only enablement baseline
	over      Overrides // the in-document directives' overrides
	catalog   Catalog
	collect   Collector    // default destination: accumulate in order
	sink      Sink         // current destination; &collect unless SetSink
	cancelled bool         // the sink returned false; emit nothing more
	extCancel *atomic.Bool // external cancel flag, polled by Cancelled
	buf       []byte       // scratch buffer for message formatting
	eventSink func(Event)  // structured emission recorder, see SetEventSink
}

// NewEmitter returns an Emitter filtering through set. A nil set means
// a fresh Set at the package defaults, private to this emitter. The
// emitter holds set read-only; callers sharing one Set across several
// emitters must not mutate it while checks are running (use the
// emitter's Enable/Disable for per-check changes).
func NewEmitter(set *Set) *Emitter {
	if set == nil {
		set = NewSet()
	}
	e := &Emitter{base: set}
	e.sink = &e.collect
	return e
}

// SetSink installs the destination messages are written to. A nil sink
// restores the default internal Collector. Reset also restores the
// default, so pooled emitters never leak a caller's sink into the next
// check.
func (e *Emitter) SetSink(s Sink) {
	if s == nil {
		s = &e.collect
	}
	e.sink = s
}

// Cancelled reports whether the check has been cancelled: the sink
// returned false from Write, or an external cancel flag installed
// with SetCancelFlag flipped. Once cancelled, Emit is a no-op until
// Reset.
//
// The checker polls Cancelled between tokens, which is what makes an
// external flag effective: a deadline can stop the tokenizing of a
// pathological document even when it produces no findings for a sink
// to cancel through.
func (e *Emitter) Cancelled() bool {
	return e.cancelled || (e.extCancel != nil && e.extCancel.Load())
}

// SetCancelFlag installs an external cancellation flag, typically
// flipped by a context.AfterFunc when a per-request deadline expires.
// A nil flag removes it. Reset also removes it, so pooled emitters
// never poll a stale caller's flag.
func (e *Emitter) SetCancelFlag(f *atomic.Bool) { e.extCancel = f }

// SetCatalog installs a localisation catalog; message templates found
// in the catalog replace the registered English ones.
func (e *Emitter) SetCatalog(c Catalog) { e.catalog = c }

// Enabled reports whether the message id is enabled for this emitter:
// its override when a directive set one, else the base set.
func (e *Emitter) Enabled(id string) bool {
	d := registry[id]
	return d != nil && e.over.enabled(e.base, d.index)
}

// Enable turns on a message ID or category for this emitter only. The
// base set is untouched — the change lives in the emitter's Overrides
// and is dropped by Reset.
func (e *Emitter) Enable(id string) error { return e.override(id, true) }

// Disable turns off a message ID or category for this emitter only.
func (e *Emitter) Disable(id string) error { return e.override(id, false) }

func (e *Emitter) override(id string, v bool) error {
	rules, err := resolve(id)
	if err != nil {
		return err
	}
	e.over.set.assign(&rules, true)
	e.over.on.assign(&rules, v)
	return nil
}

// Emit formats the message id at file:line:col with the given
// arguments and writes it to the sink, unless id is disabled or the
// sink has cancelled the stream. Emitting an unregistered id panics:
// checker code must only reference registered messages.
//
// Args must be string, int, LineRef or bool values — the types the
// registered %s/%d templates take. The restriction is what keeps the
// hot path allocation-free: the formatter never hands args to fmt, and
// an event sink's copy of them is made by type (see keepArgs), never
// by storing the caller's interface values, so args do not escape and
// the compiler keeps the variadic slice and its boxed values on the
// caller's stack — for suppressed emissions too.
func (e *Emitter) Emit(id, file string, line, col int, args ...any) {
	e.emit(id, file, line, col, nil, args)
}

// EmitFix is Emit with a machine-applicable fix attached to the
// message. The fix is dropped along with the message when the id is
// disabled. Callers hand ownership of fix to the message stream; it
// must not be mutated afterwards.
func (e *Emitter) EmitFix(id, file string, line, col int, fix *Fix, args ...any) {
	e.emit(id, file, line, col, fix, args)
}

func (e *Emitter) emit(id, file string, line, col int, fix *Fix, args []any) {
	if e.Cancelled() {
		return
	}
	d := registry[id]
	if d == nil {
		panic("warn: emit of unregistered message id " + id)
	}
	if !e.over.enabled(e.base, d.index) {
		// Suppressed: tell interested sinks so per-rule suppression
		// stats can be surfaced. The type assertion only runs on this
		// cold path; enabled emissions never pay for it. An event sink
		// records findings only, so it hears of none of this.
		if e.eventSink == nil {
			if o, ok := e.sink.(SuppressionObserver); ok {
				o.ObserveSuppressed(id)
			}
		}
		return
	}
	format := d.Format
	if e.catalog != nil {
		if t, ok := e.catalog[id]; ok {
			format = t
		}
	}
	e.buf = appendFormat(e.buf[:0], format, args)
	m := Message{
		ID:       id,
		Category: d.Category,
		File:     file,
		Line:     line,
		Col:      col,
		Text:     string(e.buf),
		Fix:      fix,
	}
	if e.eventSink != nil {
		m.Fix = cloneFix(fix)
		ev := Event{Message: m, Args: keepArgs(args)}
		if ev.Args != nil {
			ev.Format = format
		}
		e.eventSink(ev)
		return
	}
	if !e.sink.Write(m) {
		e.cancelled = true
	}
}

// appendFormat renders a registered message template. It supports the
// %s, %d and %% verbs the message tables use, mirroring fmt's
// "%!s(MISSING)" notation for arity mismatches. It must never pass
// args (or an element of args) to another function that retains them:
// Emit's zero-allocation contract depends on args not escaping.
func appendFormat(dst []byte, format string, args []any) []byte {
	ai := 0
	for i := 0; i < len(format); {
		j := indexByteFrom(format, i, '%')
		if j < 0 || j+1 >= len(format) {
			dst = append(dst, format[i:]...)
			break
		}
		dst = append(dst, format[i:j]...)
		verb := format[j+1]
		i = j + 2
		switch verb {
		case '%':
			dst = append(dst, '%')
			continue
		case 's', 'd':
			if ai >= len(args) {
				dst = append(dst, "%!"...)
				dst = append(dst, verb)
				dst = append(dst, "(MISSING)"...)
				continue
			}
			dst = appendArg(dst, verb, args[ai])
			ai++
		default:
			// Not a verb the tables use; emit it literally so the
			// problem is visible in the output.
			dst = append(dst, '%', verb)
		}
	}
	for ; ai < len(args); ai++ {
		dst = append(dst, "%!(EXTRA "...)
		dst = appendArg(dst, 'v', args[ai])
		dst = append(dst, ')')
	}
	return dst
}

// indexByteFrom is strings.IndexByte over format[i:], returning an
// index into format.
func indexByteFrom(s string, i int, c byte) int {
	j := strings.IndexByte(s[i:], c)
	if j < 0 {
		return -1
	}
	return i + j
}

// appendArg renders one argument. Only string, int and bool are
// supported (see Emit); other types render as a diagnostic placeholder
// rather than being handed to fmt, which would defeat escape analysis
// for every Emit call site.
func appendArg(dst []byte, verb byte, arg any) []byte {
	switch v := arg.(type) {
	case string:
		return append(dst, v...)
	case int:
		return strconv.AppendInt(dst, int64(v), 10)
	case LineRef:
		return strconv.AppendInt(dst, int64(v), 10)
	case bool:
		return strconv.AppendBool(dst, v)
	default:
		dst = append(dst, "%!"...)
		dst = append(dst, verb)
		return append(dst, "(UNSUPPORTED)"...)
	}
}

// Messages returns the messages collected so far, in emission order.
// Only the default internal Collector accumulates: after SetSink the
// messages went to the caller's sink and this returns nothing new.
// The returned slice is owned by the emitter; callers must not modify
// it, and it is only valid until the next Reset.
func (e *Emitter) Messages() []Message { return e.collect.Messages }

// CopyMessages returns an independent copy of the collected messages,
// safe to retain after the emitter is Reset or returned to a pool.
func (e *Emitter) CopyMessages() []Message {
	if len(e.collect.Messages) == 0 {
		return nil
	}
	out := make([]Message, len(e.collect.Messages))
	copy(out, e.collect.Messages)
	return out
}

// Reset discards collected messages, any runtime Enable/Disable
// overrides, cancellation, and any installed sink (the default
// internal Collector is restored), retaining the base enablement set
// and the message capacity, so pooled emitters stop allocating once
// warm.
func (e *Emitter) Reset() {
	e.collect.Reset()
	e.sink = &e.collect
	e.cancelled = false
	e.extCancel = nil
	e.eventSink = nil
	e.over = Overrides{}
}

// Set returns the base enablement set the emitter filters through.
// The set is a read-only view: use the emitter's Enable/Disable for
// runtime changes.
func (e *Emitter) Set() *Set { return e.base }

// SortByLine orders messages by (file, line) while keeping emission
// order for equal positions. Checkers emit end-of-document messages
// after body messages; sorting presents them in source order the way
// weblint's output reads. Columns deliberately do not participate:
// the checker's within-line emission order (quoting problems before
// identity problems, matching the paper's output) is part of the
// output contract, and column metadata must not reorder it.
func SortByLine(ms []Message) {
	slices.SortStableFunc(ms, func(a, b Message) int {
		if a.File != b.File {
			if a.File < b.File {
				return -1
			}
			return 1
		}
		return a.Line - b.Line
	})
}
