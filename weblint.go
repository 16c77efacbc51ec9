// Package weblint is a utility library for checking the syntax and
// style of HTML pages, a Go implementation of the weblint tool
// described in "Weblint: Just Another Perl Hack" (Neil Bowers, USENIX
// 1998). It was inspired by lint, which performs a similar function
// for C programmers. Weblint does not aspire to be a strict SGML
// validator, but to provide helpful comments for humans.
//
// The simplest use mirrors the paper's three-line example:
//
//	l := weblint.MustNew(weblint.Options{})
//	msgs, err := l.CheckFile("test.html")
//	for _, m := range msgs {
//		fmt.Println(weblint.LintStyle.Format(m))
//	}
//
// Every output message has an identifier and belongs to one of three
// categories (errors, warnings, style comments); everything can be
// turned on or off, per the tool's philosophy that it "should not
// impose any specific definition of style". See the warn registry for
// the full message inventory and cmd/weblint for the command-line
// tool.
//
// # Zero-copy intake
//
// Every check goes through one primitive, [Linter.Check], which takes
// the document as bytes — files, HTTP bodies, upload buffers — and
// reads it without a string conversion copy. The contract is simple
// because a check is synchronous: the caller must not mutate the slice
// while Check runs, and once it returns every Message owns its text,
// so the buffer may be reused or recycled immediately. CheckFile reads
// the file into a pooled buffer first: a warm check does not allocate
// for the document at all.
//
// # Checking a corpus
//
// Every real weblint deployment checks a fleet of documents: weblint
// *.html, the -R site recursion, the poacher robot. The batch engine
// lints a stream of jobs on GOMAXPROCS workers (one shared Linter —
// safe for concurrent use; the HTML spec and warning set are read-only
// and per-check state is pooled) and delivers results in deterministic
// input order — results are buffered per input slot, so the output of
// a parallel run is byte-identical to the sequential run however the
// scheduler interleaves workers:
//
//	eng := weblint.NewBatchEngine(l) // Workers defaults to GOMAXPROCS
//	eng.Run(jobs, func(r weblint.BatchResult) bool {
//		for _, m := range r.Messages {
//			fmt.Println(weblint.LintStyle.Format(m))
//		}
//		return true // false cancels the rest of the batch
//	})
//
// The command-line tool exposes the same engine as weblint -j N, and
// sitewalk.Walk runs its per-page phase on it.
//
// # Streaming diagnostics
//
// Every check is a stream of messages underneath, and the [Sink]
// interface is the universal channel: Write receives each message the
// moment it is produced, and returning false cancels the rest of the
// check. The slice-returning APIs collect the stream; [Linter.Check]
// and the batch engine's RunTo deliver it incrementally, so memory
// stays flat however many findings a pathological document generates.
// Check's context bounds the check, so a deadline stops even a huge
// document that emits nothing:
//
//	src, err := os.ReadFile("big.html")
//	if err != nil {
//		return err
//	}
//	var sum weblint.Summary
//	err = l.Check(ctx, "big.html", src, sum.Sink(nil)) // count without buffering
//
// Renderers are sinks too: NewRenderer builds one of the pluggable
// output formats — the traditional lint/short/terse/verbose text
// styles, JSON Lines ("json"), or SARIF 2.1.0 ("sarif") — over any
// io.Writer. Compose them with a [Summary] for severity policy:
//
//	r, _ := weblint.NewRenderer("sarif", os.Stdout)
//	var sum weblint.Summary
//	sink := sum.Sink(r)
//	// ... stream one or many checks into sink ...
//	r.Close()
//	if sum.Failures(weblint.FailOnWarning) > 0 { os.Exit(1) }
//
// Plugin authors writing custom renderers, filters or forwarders only
// need to implement Sink; see the warn package documentation for the
// delivery contract.
package weblint

import (
	"io"

	"weblint/internal/baseline"
	"weblint/internal/bytestr"
	"weblint/internal/config"
	"weblint/internal/engine"
	"weblint/internal/fixit"
	"weblint/internal/lint"
	"weblint/internal/plugin"
	"weblint/internal/render"
	"weblint/internal/warn"
)

// Message is one diagnostic produced by a check.
type Message = warn.Message

// Category classifies messages as errors, warnings or style comments.
type Category = warn.Category

// Message categories.
const (
	Error   = warn.Error
	Warning = warn.Warning
	Style   = warn.Style
)

// Options configures a Linter.
type Options = lint.Options

// Settings carries layered configuration (see the config package and
// the .weblintrc syntax).
type Settings = config.Settings

// Linter checks HTML documents. It is safe for concurrent use.
type Linter = lint.Linter

// Formatter renders messages; see the formatter values below.
type Formatter = warn.Formatter

// FormatterFunc adapts a function to the Formatter interface.
type FormatterFunc = warn.FormatterFunc

// Sink is the universal streaming diagnostics channel: Write consumes
// one message and returning false cancels the check feeding it.
type Sink = warn.Sink

// SinkFunc adapts a function to the Sink interface.
type SinkFunc = warn.SinkFunc

// Collector is a Sink that accumulates messages in order.
type Collector = warn.Collector

// Summary counts diagnostics by category; combine with a FailOn
// threshold for policy-driven exit codes.
type Summary = warn.Summary

// FailOn is the severity threshold that turns findings into a failing
// exit.
type FailOn = warn.FailOn

// Severity thresholds for Summary.Failures.
const (
	FailOnError   = warn.FailOnError
	FailOnWarning = warn.FailOnWarning
	FailOnStyle   = warn.FailOnStyle
	FailOnNever   = warn.FailOnNever
)

// ParseFailOn converts a threshold name ("error", "warning", "style",
// "any", "never") to a FailOn.
func ParseFailOn(s string) (FailOn, bool) { return warn.ParseFailOn(s) }

// Renderer is a Sink that renders the diagnostics stream to a writer;
// Close must be called once after the last Write.
type Renderer = render.Renderer

// NewRenderer builds a renderer for one of the output styles listed by
// RenderStyles: "lint", "short", "terse", "verbose", "json" (JSON
// Lines) or "sarif" (SARIF 2.1.0).
func NewRenderer(style string, w io.Writer) (Renderer, error) { return render.New(style, w) }

// RenderStyles returns the recognised renderer names.
func RenderStyles() []string { return render.Styles() }

// NewFormatterSink wraps any Formatter as a streaming Renderer writing
// one line per message to w — the hook for custom output styles.
func NewFormatterSink(f Formatter, w io.Writer) Renderer { return render.NewFormatter(f, w) }

// ContentChecker is the plugin interface for validating non-HTML
// content embedded in documents (style sheets, scripts); register
// implementations through Options.Plugins. Plugin messages must be
// registered with RegisterMessage during init.
type ContentChecker = plugin.ContentChecker

// MessageDef describes a registrable output message.
type MessageDef = warn.Def

// RegisterMessage adds a message definition to the registry; plugins
// call this from init for the messages they emit.
func RegisterMessage(d MessageDef) { warn.Register(d) }

// Locale returns a built-in message translation catalog by name
// ("fr", "de").
func Locale(name string) (warn.Catalog, bool) { return warn.Locale(name) }

// Built-in message formatters: the traditional lint style
// ("file(line): text"), the -s short style ("line N: text"), the -t
// terse style ("file:line:id"), and a verbose style with explanations.
var (
	LintStyle    Formatter = warn.Lint{}
	ShortStyle   Formatter = warn.Short{}
	TerseStyle   Formatter = warn.Terse{}
	VerboseStyle Formatter = warn.Verbose{}
)

// New builds a Linter.
func New(o Options) (*Linter, error) { return lint.New(o) }

// MustNew is New but panics on error; for tests and examples.
func MustNew(o Options) *Linter { return lint.MustNew(o) }

// NewSettings returns default settings, ready for Config layering or
// direct field adjustment.
func NewSettings() *Settings { return config.NewSettings() }

// BatchJob names one document for the batch engine: set exactly one
// of Src (in-memory bytes, checked zero-copy), Path, or URL. Name, when
// set, labels the document in every message whatever its source.
type BatchJob = engine.Job

// BatchResult is the outcome of one batch job, delivered in input
// order. Its Src, the bytes the job was checked against, is valid only
// until the Run callback returns, when a Path or URL job's read buffer
// is recycled; RunAll clears it.
type BatchResult = engine.Result

// BatchEngine lints a stream of jobs on a bounded worker pool and
// delivers results in deterministic input order. See NewBatchEngine.
type BatchEngine = engine.Engine

// NewBatchEngine returns a batch engine checking through l (nil for a
// default Linter) on GOMAXPROCS workers.
func NewBatchEngine(l *Linter) *BatchEngine { return engine.New(l) }

// CheckString checks an in-memory document with default options.
func CheckString(name, src string) []Message {
	return lint.MustNew(lint.Options{}).CheckString(name, src)
}

// CheckBytes checks an in-memory document with default options,
// without copying it; see Linter.Check for the aliasing contract.
func CheckBytes(name string, src []byte) []Message {
	return lint.MustNew(lint.Options{}).CheckString(name, bytestr.String(src))
}

// CheckFile checks a file on disk with default options.
func CheckFile(path string) ([]Message, error) {
	return lint.MustNew(lint.Options{}).CheckFile(path)
}

// Fix is a machine-applicable remediation attached to a Message: a
// label plus byte-span edits over the original source document.
type Fix = warn.Fix

// Edit is one span replacement of a Fix: bytes [Start, End) of the
// checked document are replaced by Text.
type Edit = warn.Edit

// FixReport summarises one ApplyFixes call: applied and skipped fix
// counts plus per-fix outcomes in stream order.
type FixReport = fixit.Report

// FixOutcome records what happened to one fixable message.
type FixOutcome = fixit.Outcome

// FixApplier is a Sink that retains fixable messages from a
// diagnostics stream; call its Apply once the check finishes.
type FixApplier = fixit.Applier

// ApplyFixes rewrites src with the fixes carried by msgs, dropping
// conflicting fixes deterministically (first in stream order wins),
// and returns the new document plus a report. Applying the fixes and
// re-linting leaves no fixable finding and introduces none, and a
// second pass is a byte-identical no-op — the property the test suite
// enforces document-by-document.
func ApplyFixes(src string, msgs []Message) (string, FixReport) {
	return fixit.Apply(src, msgs)
}

// UnifiedDiff renders a unified diff between two documents — the
// -fix-dry-run output format.
func UnifiedDiff(aName, bName, oldText, newText string) string {
	return fixit.UnifiedDiff(aName, bName, oldText, newText)
}

// Baseline records one run's findings so later runs can be diffed
// against it: fingerprint -> occurrence count, serialised as JSON.
// Fingerprints hash the rule ID, the document name, and the finding's
// source line content — tolerant of line drift, counting multiplicity.
type Baseline = baseline.File

// BaselineSource resolves a document's text for baseline context
// extraction; see FileBaselineSource for the disk-backed default.
type BaselineSource = baseline.SourceFunc

// BaselineRecorder is a Sink recording every finding into a Baseline
// while forwarding the stream.
type BaselineRecorder = baseline.Recorder

// BaselineFilter is a Sink forwarding only findings a Baseline does
// not cover — the "fail only on NEW findings" policy as a composable
// pipeline stage.
type BaselineFilter = baseline.Filter

// NewBaseline returns an empty baseline.
func NewBaseline() *Baseline { return baseline.New() }

// LoadBaseline reads a baseline file from disk.
func LoadBaseline(path string) (*Baseline, error) { return baseline.Load(path) }

// ParseBaseline reads a baseline from its JSON form.
func ParseBaseline(data []byte) (*Baseline, error) { return baseline.Parse(data) }

// NewBaselineRecorder returns a recording pass-through sink; a nil
// next records without forwarding.
func NewBaselineRecorder(next Sink, src BaselineSource) *BaselineRecorder {
	return baseline.NewRecorder(next, src)
}

// NewBaselineFilter returns a filtering sink diffing the stream
// against base.
func NewBaselineFilter(base *Baseline, next Sink, src BaselineSource) *BaselineFilter {
	return baseline.NewFilter(base, next, src)
}

// FileBaselineSource resolves baseline contexts by reading documents
// from disk, caching them for the run.
func FileBaselineSource() BaselineSource { return baseline.FileSource() }
