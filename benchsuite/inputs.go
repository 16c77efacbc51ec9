package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"strings"

	"weblint/internal/corpus"
	"weblint/internal/lint"
)

// Every input the benchmark feeds the program is generated here from
// the run seed. Document sizes are stratified, not drawn: each seed
// gets the same multiset of sizes at the quantiles of its
// distribution, so the spread between seeds comes from content and
// schedules, not from how many large documents a draw happened to
// hold. The seed drives content, schedules and edit traces.

// rng returns the random stream for one purpose: the same seed and
// purpose give the same stream, and purposes never share one.
func rng(seed int64, purpose string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, purpose)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// lognormalSizes returns n sizes at the quantiles (i+0.5)/n of a
// log-normal distribution with the given median and sigma, clipped to
// [lo, hi].
func lognormalSizes(n int, medianBytes, sigma float64, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		q := (float64(i) + 0.5) / float64(n)
		z := math.Sqrt2 * math.Erfinv(2*q-1)
		out[i] = max(lo, min(int(medianBytes*math.Exp(sigma*z)), hi))
	}
	return out
}

// logUniformSizes returns n sizes at the quantiles (i+0.5)/n of a
// log-uniform distribution over [lo, hi].
func logUniformSizes(n, lo, hi int) []int {
	out := make([]int, n)
	for i := range out {
		q := (float64(i) + 0.5) / float64(n)
		out[i] = int(float64(lo) * math.Pow(float64(hi)/float64(lo), q))
	}
	return out
}

// document returns a generated page of at most size bytes (and within
// one line of it) with every mistake class of the corpus generator
// injected at rate.
func document(seed int64, size int, rate float64) string {
	const closing = "</BODY>\n</HTML>\n"
	src := corpus.GenerateSized(seed, size, corpus.Uniform(rate))
	if len(src) <= size {
		return src
	}
	cut := strings.LastIndexByte(src[:size-len(closing)], '\n') + 1
	return src[:cut] + closing
}

// doc is one generated input document.
type doc struct {
	name string
	src  string
}

// documents generates one document per size, content seeded per
// position. The sizes go to positions by a fixed shuffle, not by the
// seed: where the largest documents sit in a batch decides how evenly
// the engine's workers finish, and that must not differ between seeds.
func documents(seed int64, purpose string, sizes []int, rate float64) []doc {
	r := rng(seed, purpose)
	order := rand.New(rand.NewSource(0)).Perm(len(sizes))
	docs := make([]doc, len(sizes))
	for i, k := range order {
		docs[i] = doc{
			name: fmt.Sprintf("page%03d.html", i),
			src:  document(r.Int63(), sizes[k], rate),
		}
	}
	return docs
}

func totalBytes(docs []doc) int {
	n := 0
	for _, d := range docs {
		n += len(d.src)
	}
	return n
}

// sample returns the leading documents of docs up to about limit
// bytes, and at least four, so the engine probe has work for every
// worker: the per-layer probes run on it.
func sample(docs []doc, limit int) []doc {
	n := 0
	for i, d := range docs {
		n += len(d.src)
		if n > limit && i >= 4 {
			return docs[:i]
		}
	}
	return docs
}

// Gateway traffic.

// gwRequest is one gateway submission of the schedule.
type gwRequest struct {
	doc    int  // index into the document pool
	unique bool // a per-request comment makes the body new to the cache
	format string
}

// gatewaySchedule draws n requests over a pool of pool documents:
// popular of them resubmit a document chosen by zipf(s=1.1) over
// popularity rank, the rest submit a uniformly chosen document made
// unique by a comment. Formats are 70% html, 20% json, 10% sarif.
func gatewaySchedule(seed int64, n, pool int, popular float64) []gwRequest {
	r := rng(seed, "gateway/schedule")
	z := rand.NewZipf(r, 1.1, 1, uint64(pool-1))
	out := make([]gwRequest, n)
	for i := range out {
		q := &out[i]
		if r.Float64() < popular {
			q.doc = int(z.Uint64())
		} else {
			q.doc, q.unique = r.Intn(pool), true
		}
		switch f := r.Float64(); {
		case f < 0.7:
			q.format = "html"
		case f < 0.9:
			q.format = "json"
		default:
			q.format = "sarif"
		}
	}
	return out
}

// visitorComment is the line prepended to a pooled document to make
// request i's body unique to this seed and request: its hash is new to
// the cache, and it costs nothing to generate.
func visitorComment(seed int64, i int) string {
	return fmt.Sprintf("<!-- visitor %016x -->\n", splitmix(uint64(seed)<<32^uint64(i)))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// arrivalGaps returns n gaps between Poisson arrivals at one per
// second; divided by a rate, they are the gaps at that rate.
func arrivalGaps(seed int64, n int) []float64 {
	r := rng(seed, "gateway/arrivals")
	out := make([]float64, n)
	for i := range out {
		out[i] = r.ExpFloat64()
	}
	return out
}

// Editor traffic.

type editKind int

const (
	typeChar editKind = iota
	backspace
	replaceLine
	paste
)

// edit is one abstract author action; the buffer it is applied to
// turns it into a concrete span at the cursor.
type edit struct {
	kind editKind
	text string
}

// burst is a run of edits sent as didChange notifications and followed
// by one diagnostic pull. A burst with jump >= 0 first moves the
// cursor to the line at that fraction of the document.
type burst struct {
	doc   int
	jump  float64
	edits []edit
}

// editTrace draws n bursts over docs documents. The author works on
// one document for a segment of bursts, then moves to the next in a
// seeded rotation, so every document gets the same share of bursts.
// Each burst has 1-8 edits: 70% single-character inserts at the
// cursor, 15% backspaces, 10% line replacements, 5% 1 KiB pastes.
func editTrace(seed int64, n, docs int) []burst {
	const segment = 10
	r := rng(seed, "editor/trace")
	rotation := r.Perm(docs)
	block := pasteBlock(r)
	const letters = "etaoin shrdlu cmfwyp "
	out := make([]burst, n)
	for i := range out {
		b := &out[i]
		b.doc = rotation[(i/segment)%docs]
		b.jump = -1
		if i%segment == 0 {
			b.jump = 0.1 + 0.8*r.Float64()
		}
		b.edits = make([]edit, 1+r.Intn(8))
		for j := range b.edits {
			switch k := r.Float64(); {
			case k < 0.70:
				b.edits[j] = edit{typeChar, string(letters[r.Intn(len(letters))])}
			case k < 0.85:
				b.edits[j] = edit{kind: backspace}
			case k < 0.95:
				b.edits[j] = edit{replaceLine, fmt.Sprintf("sentence %d rewritten by the author", r.Intn(1000))}
			default:
				b.edits[j] = edit{paste, block}
			}
		}
	}
	return out
}

// pasteBlock returns the block pastes insert: about 1 KiB of whole
// paragraphs, ending with a line break.
func pasteBlock(r *rand.Rand) string {
	var b strings.Builder
	for b.Len() < 1000 {
		fmt.Fprintf(&b, "<P>pasted paragraph %d about weblint and the web</P>\n", r.Intn(1000))
	}
	return b.String()
}

// buffer is the client's copy of one open document and the cursor the
// author types at. The cursor is kept as a byte offset and as
// (line, column), so a change never needs a scan of the text; the
// documents are ASCII, so byte columns equal the protocol's UTF-16
// columns.
//
// Edits leave the markup as balanced as they found it: a backspace
// deletes only a character typed since the cursor last moved, a line
// replacement rewrites the longest run of text on the line and keeps
// its tags, and the blocks pasted at one spot are cut again when the
// author moves on. Documents therefore neither fill up with unclosed
// elements nor grow over a long run.
type buffer struct {
	text      []byte
	off       int
	line, col int
	typed     int      // characters typed since the cursor last moved
	pasted    []change // cuts of the blocks pasted since the last jump
}

// change is one concrete edit: the replaced span as positions and as
// byte offsets into the text before the edit.
type change struct {
	startLine, startCol int
	endLine, endCol     int
	span                lint.Edit
}

// jump cuts the blocks pasted since the last jump, moves the cursor to
// the start of the line at fraction frac of the text, and returns the
// cuts it made. Every edit after a paste lies beyond the pasted block,
// so cutting the latest block first leaves the earlier ones in place.
func (b *buffer) jump(frac float64) []change {
	cuts := b.pasted
	slices.Reverse(cuts)
	for _, c := range cuts {
		b.text = slices.Delete(b.text, c.span.Start, c.span.End)
	}
	b.pasted = nil
	target := int(frac * float64(len(b.text)))
	b.off = bytes.LastIndexByte(b.text[:target], '\n') + 1
	b.line = bytes.Count(b.text[:b.off], []byte{'\n'})
	b.col, b.typed = 0, 0
	return cuts
}

// edit applies burst b and returns its changes in order.
func (b *buffer) edit(bu burst) []change {
	var changes []change
	if bu.jump >= 0 {
		changes = b.jump(bu.jump)
	}
	for _, e := range bu.edits {
		changes = append(changes, b.apply(e))
	}
	return changes
}

// apply applies e at the cursor and returns the change it made.
func (b *buffer) apply(e edit) change {
	lineStart := b.off - b.col
	var runStart, runEnd int
	if e.kind == replaceLine {
		runStart, runEnd = b.longestText()
	}
	if (e.kind == backspace && b.typed == 0) || (e.kind == replaceLine && runStart == runEnd) {
		e = edit{typeChar, " "}
	}
	c := change{startLine: b.line, startCol: b.col, endLine: b.line, endCol: b.col}
	switch e.kind {
	case typeChar:
		c.span = lint.Edit{Start: b.off, End: b.off, Text: e.text}
		b.text = slices.Insert(b.text, b.off, []byte(e.text)...)
		b.off, b.col, b.typed = b.off+1, b.col+1, b.typed+1
	case backspace:
		c.startCol--
		c.span = lint.Edit{Start: b.off - 1, End: b.off}
		b.text = slices.Delete(b.text, b.off-1, b.off)
		b.off, b.col, b.typed = b.off-1, b.col-1, b.typed-1
	case replaceLine:
		c.startCol, c.endCol = runStart-lineStart, runEnd-lineStart
		c.span = lint.Edit{Start: runStart, End: runEnd, Text: e.text}
		b.text = slices.Replace(b.text, runStart, runEnd, []byte(e.text)...)
		b.off = runStart + len(e.text)
		b.col, b.typed = b.off-lineStart, 0
	case paste:
		c.span = lint.Edit{Start: b.off, End: b.off, Text: e.text}
		b.text = slices.Insert(b.text, b.off, []byte(e.text)...)
		lines := strings.Count(e.text, "\n")
		b.pasted = append(b.pasted, change{
			startLine: b.line, startCol: b.col, endLine: b.line + lines,
			span: lint.Edit{Start: b.off, End: b.off + len(e.text)},
		})
		b.off += len(e.text)
		b.line, b.col, b.typed = b.line+lines, 0, 0
	}
	return c
}

// longestText returns the longest run of text outside tags on the
// cursor's line, as byte offsets.
func (b *buffer) longestText() (start, end int) {
	ls := b.off - b.col
	le := len(b.text)
	if i := bytes.IndexByte(b.text[ls:], '\n'); i >= 0 {
		le = ls + i
	}
	run, inTag := ls, false
	for i := ls; i <= le; i++ {
		switch {
		case i == le || (b.text[i] == '<' && !inTag):
			if !inTag && i-run > end-start {
				start, end = run, i
			}
			inTag = true
		case b.text[i] == '>' && inTag:
			inTag, run = false, i+1
		}
	}
	return start, end
}
