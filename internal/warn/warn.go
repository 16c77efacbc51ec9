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

// registry holds all known message definitions, keyed by ID.
var registry = map[string]*Def{}

// order preserves registration order for deterministic listings.
var order []string

// register adds a definition to the package registry. It panics on
// duplicate IDs, which would be a programming error in the tables.
func register(d Def) {
	if _, dup := registry[d.ID]; dup {
		panic("warn: duplicate message id " + d.ID)
	}
	def := d
	registry[d.ID] = &def
	order = append(order, d.ID)
}

// Register adds a message definition from outside the package. It is
// the extension point content plugins use to contribute their own
// messages (the paper's Section 6.1 plugin idea); it must be called
// during init, before any Set is constructed.
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
	out := make([]string, len(order))
	copy(out, order)
	return out
}

// Count returns the total number of registered messages.
func Count() int { return len(registry) }

// DefaultEnabledCount returns how many registered messages are enabled
// by default.
func DefaultEnabledCount() int {
	n := 0
	for _, d := range registry {
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
	for _, d := range registry {
		m[d.Category]++
	}
	return m
}

// setEntry pairs a message definition with its enablement, so the hot
// path resolves both with one map lookup.
type setEntry struct {
	def *Def
	on  bool
}

// Set is an enable/disable selection over the registry. The zero value
// is not useful; construct with NewSet.
type Set struct {
	entries map[string]*setEntry
}

// NewSet returns a Set with every message at its registered default.
func NewSet() *Set {
	s := &Set{entries: make(map[string]*setEntry, len(registry))}
	for id, d := range registry {
		s.entries[id] = &setEntry{def: d, on: d.Default}
	}
	return s
}

// AllEnabled returns a Set with every registered message enabled,
// including those disabled by default (the CLI's -pedantic mode).
func AllEnabled() *Set {
	s := NewSet()
	for _, e := range s.entries {
		e.on = true
	}
	return s
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{entries: make(map[string]*setEntry, len(s.entries))}
	for k, e := range s.entries {
		cp := *e
		c.entries[k] = &cp
	}
	return c
}

// Enable turns on the message with the given ID, or every message in a
// category when id names a category ("errors", "style", ...). It
// returns an error for unknown identifiers so that configuration typos
// are surfaced to the user.
func (s *Set) Enable(id string) error { return s.set(id, true) }

// Disable turns off the message with the given ID or category.
func (s *Set) Disable(id string) error { return s.set(id, false) }

func (s *Set) set(id string, v bool) error {
	if id == "all" {
		for _, e := range s.entries {
			e.on = v
		}
		return nil
	}
	if cat, ok := ParseCategory(id); ok {
		for rid, d := range registry {
			if d.Category == cat {
				s.entry(rid, d).on = v
			}
		}
		return nil
	}
	d := registry[id]
	if d == nil {
		return fmt.Errorf("warn: unknown warning identifier %q", id)
	}
	s.entry(id, d).on = v
	return nil
}

// entry returns the set's entry for id, materialising one (at the
// registered default) for a message registered after the Set was
// built — plugin registrations must remain configurable through any
// existing Set, as they were when the set was a plain id→bool map.
func (s *Set) entry(id string, d *Def) *setEntry {
	if e, ok := s.entries[id]; ok {
		return e
	}
	e := &setEntry{def: d, on: d.Default}
	s.entries[id] = e
	return e
}

// Enabled reports whether the message with the given ID is currently
// enabled. Unknown IDs report false.
func (s *Set) Enabled(id string) bool {
	e := s.entries[id]
	return e != nil && e.on
}

// EnabledIDs returns the identifiers of all enabled messages, sorted.
func (s *Set) EnabledIDs() []string {
	var out []string
	for id, e := range s.entries {
		if e.on {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
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
// Enable/Disable, which record the change in a private copy-on-write
// overlay scoped to this emitter.
type Emitter struct {
	base      *Set            // read-only enablement baseline
	overlay   map[string]bool // copy-on-write runtime overrides
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
// the runtime overlay wins, then the base set.
func (e *Emitter) Enabled(id string) bool {
	if e.overlay != nil {
		if v, ok := e.overlay[id]; ok {
			return v
		}
	}
	return e.base.Enabled(id)
}

// Enable turns on a message ID or category for this emitter only. The
// base set is untouched — the change lives in the emitter's overlay
// and is dropped by Reset.
func (e *Emitter) Enable(id string) error { return e.override(id, true) }

// Disable turns off a message ID or category for this emitter only.
func (e *Emitter) Disable(id string) error { return e.override(id, false) }

func (e *Emitter) override(id string, v bool) error {
	if id != "all" {
		if cat, ok := ParseCategory(id); ok {
			if e.overlay == nil {
				e.overlay = make(map[string]bool, 16)
			}
			for k, d := range registry {
				if d.Category == cat {
					e.overlay[k] = v
				}
			}
			return nil
		}
		if _, ok := registry[id]; !ok {
			return fmt.Errorf("warn: unknown warning identifier %q", id)
		}
		if e.overlay == nil {
			e.overlay = make(map[string]bool, 16)
		}
		e.overlay[id] = v
		return nil
	}
	if e.overlay == nil {
		e.overlay = make(map[string]bool, len(registry))
	}
	for k := range registry {
		e.overlay[k] = v
	}
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
	var (
		on bool
		d  *Def
	)
	if ent := e.base.entries[id]; ent != nil {
		on, d = ent.on, ent.def
	} else {
		// The id was registered after the base set was built. It is
		// disabled until explicitly enabled — the behaviour a plain
		// id→bool set always had for ids it doesn't know.
		d = registry[id]
		if d == nil {
			panic("warn: emit of unregistered message id " + id)
		}
	}
	if e.overlay != nil {
		if v, ok := e.overlay[id]; ok {
			on = v
		}
	}
	if !on {
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
	if len(e.overlay) > 0 {
		clear(e.overlay)
	}
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
