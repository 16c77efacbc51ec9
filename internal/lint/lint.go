// Package lint provides the Weblint class of the paper's Section 5.4:
// an object which encapsulates the HTML checking functionality, making
// it easy to embed weblint in any application. The simplest use is
//
//	l := lint.New(lint.Options{})
//	msgs, err := l.CheckFile("index.html")
//
// Every check goes through one primitive, [Linter.Check]: a document
// held as bytes, a name for its messages, a context bounding the check
// and a warn.Sink receiving each message as it is produced.
// [Linter.CheckString] collects a check into a sorted slice, and
// CheckFile is ReadFile plus CheckString. Getting the bytes is the
// caller's business: ReadFile and ReadURL (net/http through the
// hardened fetch client, the stdlib stand-in for the paper's LWP) read
// a document into a buffer, typically a pooled one.
package lint

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"weblint/internal/bufpool"
	"weblint/internal/bytestr"
	"weblint/internal/config"
	"weblint/internal/core"
	"weblint/internal/csslint"
	"weblint/internal/fetch"
	"weblint/internal/htmlspec"
	"weblint/internal/htmltoken"
	"weblint/internal/plugin"
	"weblint/internal/warn"
)

// Options configures a Linter.
type Options struct {
	// Settings carries the layered configuration (warning set, HTML
	// version, extensions, style knobs). Nil means defaults.
	Settings *config.Settings
	// Pedantic enables every registered warning, including the
	// esoteric ones ("I love 'em!").
	Pedantic bool
	// Plugins adds content checkers for non-HTML content beyond the
	// built-in CSS style sheet checker, which is always on.
	Plugins []plugin.ContentChecker
}

// Linter checks HTML documents against a configured HTML version and
// warning selection. A Linter is safe for concurrent use: each check
// borrows a private emitter/checker/tokenizer bundle from an internal
// pool, so concurrent checks share nothing but the immutable spec and
// the read-only warning set, and repeated checks reuse the bundle's
// warmed-up buffers instead of reallocating them.
type Linter struct {
	set      *warn.Set
	spec     *htmlspec.Spec
	catalog  warn.Catalog
	coreOpts core.Options
	fp       string

	states sync.Pool // of *checkState
}

// releaseThreshold is the document size in bytes above which a pooled
// checkState's document references are dropped before parking it.
const releaseThreshold = 64 << 10

// checkState is the per-check mutable machinery a Linter pools.
type checkState struct {
	em *warn.Emitter
	ck *core.Checker
	tz *htmltoken.Tokenizer
}

// New builds a Linter from options.
func New(o Options) (*Linter, error) {
	s := o.Settings
	if s == nil {
		s = config.NewSettings()
	}

	set := s.Set
	if set == nil {
		set = warn.NewSet()
	}
	if o.Pedantic {
		set = warn.AllEnabled()
	}

	spec := htmlspec.Default()
	if s.HTMLVersion != "" {
		v, ok := htmlspec.ByVersion(s.HTMLVersion)
		if !ok {
			return nil, fmt.Errorf("lint: unknown HTML version %q", s.HTMLVersion)
		}
		spec = v
	}
	// The version specs are shared and immutable; extensions go into a
	// per-linter overlay so linters never contaminate each other.
	spec = spec.WithExtensions(s.Extensions...)

	var catalog warn.Catalog
	if s.Locale != "" && s.Locale != "en" {
		c, ok := warn.Locale(s.Locale)
		if !ok {
			return nil, fmt.Errorf("lint: unknown locale %q", s.Locale)
		}
		catalog = c
	}

	// Copy the caller's plugin slice: appending the built-in checker
	// to o.Plugins directly could write into (and clobber) spare
	// capacity of the caller's backing array.
	plugins := make([]plugin.ContentChecker, 0, len(o.Plugins)+1)
	plugins = append(plugins, o.Plugins...)
	plugins = append(plugins, csslint.Checker{})

	l := &Linter{
		set:     set,
		catalog: catalog,
		spec:    spec,
		coreOpts: core.Options{
			Spec:        spec,
			TagCase:     s.TagCase,
			AttrCase:    s.AttrCase,
			TitleLength: s.TitleLength,
			HereWords:   s.HereWords,
			Plugins:     plugins,
		},
	}
	l.fp = fingerprintConfig(s, spec, set, plugins)
	return l, nil
}

// fingerprintConfig digests every input that can change a check's
// findings into a stable hex string. Two linters with equal
// fingerprints produce identical finding streams for identical input;
// the gateway's result cache leans on exactly that, so anything new
// that alters behaviour — an option, a settings knob, a plugin — must
// be folded in here. Same fingerprint discipline as internal/baseline:
// hash a canonical, delimited rendering, never a formatted struct.
func fingerprintConfig(s *config.Settings, spec *htmlspec.Spec, set *warn.Set, plugins []plugin.ContentChecker) string {
	h := sha256.New()
	field := func(parts ...string) {
		for _, p := range parts {
			io.WriteString(h, p)
			h.Write([]byte{0})
		}
		h.Write([]byte{1})
	}
	field("weblint-config-v1")
	field("spec", spec.Version)
	exts := append([]string(nil), s.Extensions...)
	sort.Strings(exts)
	field(append([]string{"extensions"}, exts...)...)
	field(append([]string{"enabled"}, set.EnabledIDs()...)...)
	field("locale", s.Locale)
	field("tagcase", s.TagCase, "attrcase", s.AttrCase)
	field("titlelength", strconv.Itoa(s.TitleLength))
	field(append([]string{"herewords"}, s.HereWords...)...)
	names := make([]string, 0, len(plugins))
	for _, p := range plugins {
		names = append(names, p.Name())
	}
	sort.Strings(names)
	field(append([]string{"plugins"}, names...)...)
	return hex.EncodeToString(h.Sum(nil))
}

// ConfigFingerprint returns a stable content hash of the linter's
// effective configuration: HTML version, extensions, enabled warning
// set, locale, style knobs, and plugin names.
// Linters with equal fingerprints are interchangeable for caching.
func (l *Linter) ConfigFingerprint() string { return l.fp }

// MustNew is New for callers with known-good options; it panics on
// error and is intended for tests and examples.
func MustNew(o Options) *Linter {
	l, err := New(o)
	if err != nil {
		panic(err)
	}
	return l
}

// Spec returns the HTML version spec the linter checks against.
func (l *Linter) Spec() *htmlspec.Spec { return l.spec }

// Set returns the warning enablement set the linter uses.
func (l *Linter) Set() *warn.Set { return l.set }

// checkOpts derives the per-check checker options: the linter's own,
// labelled with the document name. Every check and Session uses it.
func (l *Linter) checkOpts(name string) core.Options {
	opts := l.coreOpts
	opts.Filename = name
	return opts
}

// run drives one check over src through a pooled emitter/checker/
// tokenizer bundle, streaming diagnostics into sink. A nil sink keeps
// the emitter's default internal collector, which is how CheckString
// accumulates. Only a context that can end (ctx.Done() != nil) costs
// anything: it installs a cancel flag that the emitter checks before
// every message and the checker polls between tokens, so a quiet
// document stops tokenizing too. The flag is set before the check
// starts when ctx is already done, since context.AfterFunc would set
// it from another goroutine only later. The error is ctx.Err() after
// the check, nil when it ran to completion. The caller must hand the
// returned state back with release.
func (l *Linter) run(ctx context.Context, name, src string, sink warn.Sink) (*checkState, error) {
	st, _ := l.states.Get().(*checkState)
	if st == nil {
		em := warn.NewEmitter(l.set)
		em.SetCatalog(l.catalog)
		st = &checkState{
			em: em,
			ck: core.New(em, l.coreOpts),
			tz: htmltoken.New(""),
		}
	}
	st.em.Reset()
	if ctx.Done() != nil {
		flag := new(atomic.Bool)
		flag.Store(ctx.Err() != nil)
		stop := context.AfterFunc(ctx, func() { flag.Store(true) })
		defer stop()
		st.em.SetCancelFlag(flag)
	}
	if sink != nil {
		st.em.SetSink(sink)
	}
	st.ck.Reset(st.em, l.checkOpts(name))
	st.tz.Reset(src)
	st.ck.Run(st.tz)
	return st, ctx.Err()
}

// release parks a check bundle back in the pool. It detaches any
// caller sink (Reset would too, but the pool entry must not retain a
// reference meanwhile) and drops the bundle's references into a large
// checked document: an idle pool entry must not pin a huge source
// string until the next check happens to draw it. Below the threshold
// the sweep would cost more than the memory it frees.
func (l *Linter) release(st *checkState, srcLen int) {
	st.em.SetSink(nil)
	st.em.SetCancelFlag(nil)
	if srcLen >= releaseThreshold {
		st.tz.Release()
		st.ck.Release()
	}
	l.states.Put(st)
}

// Check checks the document src, named name in messages, streaming
// each diagnostic into sink the moment it is produced: nothing
// accumulates, so memory stays flat however many findings a
// pathological document generates. Messages arrive in emission order —
// document order for body checks, with the end-of-document checks
// (require-title, ...) last — not the (file, line)-sorted order of
// CheckString. The sink returning false cancels the check: tokenizing
// stops promptly and no further messages are delivered.
//
// ctx bounds the check. When it ends (a per-request lint budget
// expiring, a client hanging up) the check stops promptly, even inside
// a huge document that emits nothing; messages already delivered stay
// delivered, and Check returns ctx.Err(). It returns nil when the
// check ran to completion. A context that can never end, such as
// context.Background(), costs nothing extra.
//
// src is read zero-copy, through a string view of the slice (see
// bytestr): the caller must not mutate it while Check runs. Once Check
// returns every message owns its text, so the buffer may be reused or
// recycled at once. ctx and sink must be non-nil.
//
// The emitter, checker and tokenizer driving the check come from a
// per-linter pool: the emitter reads the linter's warning set through
// a read-only view (in-document "weblint:" directives land in a
// per-check overlay, not in the shared set), and all per-document
// state is recycled across calls.
func (l *Linter) Check(ctx context.Context, name string, src []byte, sink warn.Sink) error {
	st, err := l.run(ctx, name, bytestr.String(src), sink)
	l.release(st, len(src))
	return err
}

// CheckString checks a document held in memory and returns its
// messages sorted by line. It streams into the pooled emitter's
// internal collector and copies the result out.
func (l *Linter) CheckString(name, src string) []warn.Message {
	st, _ := l.run(context.Background(), name, src, nil)
	msgs := st.em.CopyMessages()
	l.release(st, len(src))
	warn.SortByLine(msgs)
	return msgs
}

// CheckStringTo is Check over a string, without a deadline.
func (l *Linter) CheckStringTo(name, src string, sink warn.Sink) {
	l.Check(context.Background(), name, bytestr.Bytes(src), sink)
}

// CheckFile checks a document on disk, named by its path in messages,
// and returns its messages sorted by line. The file is read into a
// pooled buffer, so a warm CheckFile does not allocate for the
// document at all.
func (l *Linter) CheckFile(path string) ([]warn.Message, error) {
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	if err := ReadFile(path, buf); err != nil {
		return nil, err
	}
	return l.CheckString(path, bytestr.String(buf.Bytes())), nil
}

// ReadFile reads the file at path into buf, growing it once to the
// file's size. Pair it with a bufpool buffer and Check for a check
// that does not allocate for the document.
func ReadFile(path string, buf *bytes.Buffer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if st, err := f.Stat(); err == nil && st.Size() > 0 && st.Size() < int64(^uint(0)>>1)-bytes.MinRead {
		// The MinRead margin lets ReadFrom hit EOF without one last
		// grow-and-copy of the whole buffer.
		buf.Grow(int(st.Size()) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(f); err != nil {
		return fmt.Errorf("lint: reading %s: %w", path, err)
	}
	return nil
}

// urlClient is the hardened fetch client ReadURL shares, built on
// first use. Private targets stay reachable: ReadURL serves the
// library and the CLI, whose caller names the URL — commonly their own
// intranet or localhost. Services exposing URL checks to others (the
// gateway) use their own guarded fetch.Client.
var urlClient = sync.OnceValue(func() *fetch.Client {
	return fetch.New(fetch.Options{
		Timeout:      30 * time.Second,
		AllowPrivate: true,
		UserAgent:    "weblint/2.0",
	})
})

// ReadURL retrieves the page at url into buf. Every fetch limit
// applies, the body cap included: a body over it fails with an error
// wrapping fetch.ErrBodyTooLarge. A status other than 200 OK is an
// error too.
func ReadURL(ctx context.Context, url string, buf *bytes.Buffer) error {
	res, err := urlClient().Fetch(ctx, url, buf)
	if err != nil {
		return err
	}
	if res.Status != http.StatusOK {
		return fmt.Errorf("lint: GET %s: %d %s", url, res.Status, http.StatusText(res.Status))
	}
	return nil
}
