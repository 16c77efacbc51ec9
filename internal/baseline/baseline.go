// Package baseline implements finding baselines: record the findings
// of one run, then diff later runs against the record so that only NEW
// findings fail. It is what makes weblint enforceable on a codebase
// with existing debt — adopt it today, baseline today's findings, and
// CI goes red only when a change introduces a problem that was not
// already there.
//
// # Fingerprints
//
// Each finding is identified by a fingerprint of its rule ID, its
// document name, and a context hash. Line NUMBERS deliberately do not
// participate: inserting a paragraph above a baselined finding shifts
// every line below it, and a baseline keyed on positions would light
// up the whole file. The context is the text of the enclosing markup
// token (located through the tokenizer's byte offsets) with its
// whitespace collapsed, so reflowing a tag across lines does not
// resurrect its findings either; findings in plain text fall back to
// the whitespace-trimmed source line. Identical findings (same rule,
// same context) are counted, so a file with fifty baselined `<IMG>`
// tags missing ALT fails when a fifty-first appears — even though its
// fingerprint matches.
//
// # Composition
//
// The layer rides the streaming pipeline as two warn.Sink wrappers:
// a Recorder counts every finding into a File, and a Filter forwards
// only the findings a baseline does not cover. Both forward
// suppression observations, so per-rule suppression stats survive
// them.
package baseline

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"weblint/internal/htmltoken"
	"weblint/internal/textpos"
	"weblint/internal/warn"
)

// Version is the baseline file format version this package writes.
// Version 2 switched context hashes from raw source lines to
// whitespace-collapsed enclosing-tag text; version-1 baselines must be
// re-recorded, so Parse rejects them rather than silently reporting
// every finding as new.
const Version = 2

// File is a recorded baseline: fingerprint -> occurrence count. It
// serialises as a small stable JSON document (keys sorted by
// encoding/json), so baselines diff cleanly under version control.
type File struct {
	// Version identifies the file format.
	Version int `json:"version"`
	// Tool names the producer.
	Tool string `json:"tool"`
	// Findings maps finding fingerprints to how many findings shared
	// each fingerprint when the baseline was recorded.
	Findings map[string]int `json:"findings"`
}

// New returns an empty baseline.
func New() *File {
	return &File{Version: Version, Tool: "weblint", Findings: map[string]int{}}
}

// Add records one occurrence of a fingerprint.
func (f *File) Add(fp string) {
	if f.Findings == nil {
		f.Findings = map[string]int{}
	}
	f.Findings[fp]++
}

// Total returns the number of recorded findings (counting
// multiplicity).
func (f *File) Total() int {
	n := 0
	for _, c := range f.Findings {
		n += c
	}
	return n
}

// Encode renders the baseline as JSON with a trailing newline.
func (f *File) Encode() []byte {
	out, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		// A map[string]int cannot fail to marshal; keep the signature
		// ergonomic for the common path.
		panic("baseline: encode: " + err.Error())
	}
	return append(out, '\n')
}

// WriteFile writes the baseline to path.
func (f *File) WriteFile(path string) error {
	return os.WriteFile(path, f.Encode(), 0o644)
}

// Parse reads a baseline from its JSON form.
func Parse(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("baseline: parsing: %w", err)
	}
	if f.Version != Version {
		return nil, fmt.Errorf("baseline: unsupported version %d (this weblint writes %d)", f.Version, Version)
	}
	if f.Findings == nil {
		f.Findings = map[string]int{}
	}
	return &f, nil
}

// Load reads a baseline file from disk.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// Fingerprint derives the stable identity of a finding: rule ID,
// document name, and its context (the whitespace-collapsed enclosing
// tag text, or the trimmed source line — see fingerprinter.context).
// The hash is the first 16 hex digits of SHA-256 over the three parts
// — short enough to keep baselines readable, long enough that
// collisions are not a practical concern.
func Fingerprint(id, file, context string) string {
	h := sha256.New()
	h.Write([]byte(id))
	h.Write([]byte{0})
	h.Write([]byte(file))
	h.Write([]byte{0})
	h.Write([]byte(strings.TrimSpace(context)))
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// SourceFunc resolves a document's full text for context extraction.
// The boolean result reports whether the text is available; findings
// in unavailable documents fingerprint with an empty context (rule ID
// and document name still discriminate).
type SourceFunc func(file string) (string, bool)

// FileSource returns a SourceFunc reading documents from disk with a
// small bounded cache. It is the right source for CLI runs whose
// message File fields are paths: the stream arrives grouped per
// document, so one live entry does the real work, and the bound keeps
// a 10k-file run from pinning every file's text until exit (the same
// reasoning as the fingerprinter's own index-cache bound).
func FileSource() SourceFunc {
	cache := map[string]*string{}
	return func(file string) (string, bool) {
		if s, ok := cache[file]; ok {
			if s == nil {
				return "", false
			}
			return *s, true
		}
		if len(cache) >= indexCacheMax {
			clear(cache)
		}
		data, err := os.ReadFile(file)
		if err != nil {
			cache[file] = nil
			return "", false
		}
		s := string(data)
		cache[file] = &s
		return s, true
	}
}

// StaticSource returns a SourceFunc serving one in-memory document —
// the right source when a single submission is being checked (the
// gateway) or when the caller swaps documents per check (poacher).
func StaticSource(name, src string) SourceFunc {
	return func(file string) (string, bool) {
		if file == name {
			return src, true
		}
		return "", false
	}
}

// tagSpan is the byte range [start, end) of one markup token.
type tagSpan struct{ start, end int }

// docInfo caches everything context extraction needs for one document:
// its line index in the tokenizer's convention, which message lines
// count in, its text, and the byte spans of its markup tokens in
// document order.
type docInfo struct {
	ix    *textpos.Index
	src   string
	spans []tagSpan
}

// fingerprinter computes message fingerprints, caching one document
// record per file.
type fingerprinter struct {
	src  SourceFunc
	docs map[string]*docInfo
}

func newFingerprinter(src SourceFunc) fingerprinter {
	return fingerprinter{src: src, docs: map[string]*docInfo{}}
}

// indexCacheMax bounds the per-document cache. Message streams arrive
// grouped by document, so one live entry does the real work; the cap
// only stops a crawl-length run (poacher visits hundreds of pages)
// from pinning every page's text until the run ends.
const indexCacheMax = 16

// tagSpans tokenizes src and collects the byte span of every markup
// token (everything except plain text). Tokens arrive in document
// order, so the result is sorted by start and non-overlapping.
func tagSpans(src string) []tagSpan {
	t := htmltoken.New(src)
	var spans []tagSpan
	var tok htmltoken.Token
	for t.NextInto(&tok) {
		if tok.Type == htmltoken.Text {
			continue
		}
		spans = append(spans, tagSpan{tok.Offset, tok.Offset + len(tok.Raw)})
	}
	return spans
}

func (fp *fingerprinter) doc(file string) *docInfo {
	if d, ok := fp.docs[file]; ok {
		return d
	}
	var d *docInfo
	if fp.src != nil {
		if text, have := fp.src(file); have {
			d = &docInfo{ix: textpos.NewLF(text), src: text, spans: tagSpans(text)}
		}
	}
	if len(fp.docs) >= indexCacheMax {
		clear(fp.docs)
	}
	fp.docs[file] = d // nil caches the miss too
	return d
}

// context returns the whitespace-collapsed text of the markup token
// enclosing the message position, the trimmed line text when the
// position falls in plain text, or "" when the document is
// unavailable. Keying on the enclosing token makes fingerprints
// survive reflowing a multi-line tag: the collapsed token text is
// identical however the attributes wrap.
func (fp *fingerprinter) context(m warn.Message) string {
	d := fp.doc(m.File)
	if d == nil {
		return ""
	}
	off := d.ix.LineStart(m.Line - 1)
	if m.Col > 0 {
		off += m.Col - 1
	}
	if off > len(d.src) {
		off = len(d.src)
	}
	// Last span starting at or before off.
	i := sort.Search(len(d.spans), func(i int) bool { return d.spans[i].start > off }) - 1
	if i >= 0 && off < d.spans[i].end {
		return collapseSpace(d.src[d.spans[i].start:d.spans[i].end])
	}
	return d.ix.LineText(m.Line - 1)
}

// collapseSpace trims s and collapses every internal whitespace run to
// a single space.
func collapseSpace(s string) string {
	s = strings.TrimSpace(s)
	collapsed := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
			(c == ' ' && i+1 < len(s) && s[i+1] == ' ') {
			collapsed = false
			break
		}
	}
	if collapsed {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	space := false
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case ' ', '\t', '\n', '\r', '\f':
			space = true
		default:
			if space && b.Len() > 0 {
				b.WriteByte(' ')
			}
			space = false
			b.WriteByte(c)
		}
	}
	return b.String()
}

func (fp *fingerprinter) of(m warn.Message) string {
	return Fingerprint(m.ID, m.File, fp.context(m))
}

// Recorder is a warn.Sink recording every finding into a baseline File
// and forwarding it to Next (a nil Next records without forwarding).
type Recorder struct {
	// Next receives every message after recording.
	Next warn.Sink

	file *File
	fp   fingerprinter
}

// NewRecorder returns a Recorder over an empty baseline, resolving
// finding contexts through src.
func NewRecorder(next warn.Sink, src SourceFunc) *Recorder {
	return &Recorder{Next: next, file: New(), fp: newFingerprinter(src)}
}

// Write records m and forwards it.
func (r *Recorder) Write(m warn.Message) bool {
	r.file.Add(r.fp.of(m))
	if r.Next == nil {
		return true
	}
	return r.Next.Write(m)
}

// ObserveSuppressed forwards suppression observations to Next.
func (r *Recorder) ObserveSuppressed(id string) {
	if o, ok := r.Next.(warn.SuppressionObserver); ok {
		o.ObserveSuppressed(id)
	}
}

// File returns the baseline recorded so far.
func (r *Recorder) File() *File { return r.file }

// Filter is a warn.Sink forwarding only the findings a baseline does
// not cover. Each baselined fingerprint carries an allowance equal to
// its recorded count: the first N findings matching it are absorbed,
// further ones are new and flow through.
type Filter struct {
	// Next receives the new findings.
	Next warn.Sink

	remaining map[string]int
	used      map[string]int
	fp        fingerprinter

	// New counts the findings forwarded (not covered by the baseline);
	// Matched counts the findings the baseline absorbed.
	New     int
	Matched int
}

// NewFilter returns a Filter diffing against base, resolving finding
// contexts through src.
func NewFilter(base *File, next warn.Sink, src SourceFunc) *Filter {
	remaining := make(map[string]int, len(base.Findings))
	for k, v := range base.Findings {
		remaining[k] = v
	}
	return &Filter{Next: next, remaining: remaining, used: map[string]int{}, fp: newFingerprinter(src)}
}

// Write absorbs baselined findings and forwards new ones.
func (f *Filter) Write(m warn.Message) bool {
	fp := f.fp.of(m)
	if f.remaining[fp] > 0 {
		f.remaining[fp]--
		f.used[fp]++
		f.Matched++
		return true
	}
	f.New++
	if f.Next == nil {
		return true
	}
	return f.Next.Write(m)
}

// Used returns a baseline holding only the fingerprints this run
// actually consumed, at their consumed counts. Writing it back over
// the input baseline prunes paid-down findings — entries whose code
// has been fixed since the baseline was recorded — without granting
// any allowance for new ones (those were forwarded, not recorded).
func (f *Filter) Used() *File {
	out := New()
	for k, v := range f.used {
		out.Findings[k] = v
	}
	return out
}

// ObserveSuppressed forwards suppression observations to Next.
func (f *Filter) ObserveSuppressed(id string) {
	if o, ok := f.Next.(warn.SuppressionObserver); ok {
		o.ObserveSuppressed(id)
	}
}
