package main

import (
	"fmt"
	"math"
	"time"

	"weblint/internal/lint"
	"weblint/internal/lsp"
)

// The editor workload is an author typing in an LSP editor: a closed
// loop of didChange bursts, each followed by a textDocument/diagnostic
// pull, against lsp.Server.Run on in-memory pipes with the server's
// production defaults. One operation is one burst; its latency runs
// from the last didChange sent to the pull response received.

var editorTyping = &workload{
	name: "editor-typing",
	why: "an author typing in an LSP editor on 64 KiB-1 MiB pages: edits go through Session snapshot restore " +
		"and window re-tokenization, so a full-lint gain that slows edits shows here",
	style:   "json",
	prepare: prepareEditor,
}

type editorInputs struct {
	docs  []doc // names are the documents' URIs
	trace []burst
}

func prepareEditor(o options, ck *tally) (inputs, error) {
	r := rng(o.seed, "editor/docs")
	sizes := []int{64 << 10, 256 << 10, 1 << 20}
	in := &editorInputs{trace: editTrace(o.seed, 20000, len(sizes))}
	for i, size := range sizes {
		size = max(4<<10, int(float64(size)*o.scale))
		in.docs = append(in.docs, doc{name: fmt.Sprintf("untitled:page%d.html", i), src: document(r.Int63(), size, 0.03)})
	}
	return in, nil
}

func (in *editorInputs) probeDocs() []doc { return in.docs }

func (in *editorInputs) cleanup() {}

func (in *editorInputs) setup(ck *tally) (system, error) {
	s := &editorSystem{
		in:      in,
		cl:      startLSP(lsp.Options{}),
		linter:  lint.MustNew(lint.Options{}),
		bufs:    make([]*buffer, len(in.docs)),
		version: make([]int, len(in.docs)),
		edited:  map[int]bool{},
	}
	if err := s.cl.initialize(); err != nil {
		s.cl.close()
		return nil, err
	}
	for i, d := range in.docs {
		s.bufs[i] = &buffer{text: []byte(d.src)}
		s.bufs[i].jump(0.5)
		if _, err := s.open(i, ck); err != nil {
			s.cl.close()
			return nil, err
		}
	}
	return s, nil
}

type editorSystem struct {
	in      *editorInputs
	cl      *lspClient
	linter  *lint.Linter // the reference for from-scratch lints
	bufs    []*buffer
	version []int
	next    int             // next burst of the trace
	opens   []time.Duration // didOpen to diagnostics, per reopen
	// edited holds the documents changed since the last settle; each
	// has a debounced re-lint pending in the server.
	edited map[int]bool
}

func (s *editorSystem) close() { s.cl.close() }

// open opens document i at its current text and checks the published
// diagnostics against a from-scratch lint; it returns the time from
// didOpen to their arrival.
func (s *editorSystem) open(i int, ck *tally) (time.Duration, error) {
	uri, text := s.in.docs[i].name, string(s.bufs[i].text)
	s.version[i]++
	diags, took, err := s.cl.open(uri, s.version[i], text)
	if err != nil {
		return 0, err
	}
	ck.check(sameDiagnostics(diags, s.linter.CheckString(uri, text)),
		"didOpen of %s published diagnostics that differ from a from-scratch lint", uri)
	return took, nil
}

// editorBurstRate is the bursts a second the nominal machine serves: a
// stretch of measurement of d sends d×editorBurstRate bursts.
const editorBurstRate = 90.0

// measure first closes and reopens the largest document, then sends
// the bursts of d.
func (s *editorSystem) measure(d time.Duration, _ float64, tr *tracer, ck *tally) loopResult {
	largest := len(s.in.docs) - 1
	if open, err := s.reopen(largest, ck); ck.check(err == nil, "reopen of %s: %v", s.in.docs[largest].name, err) {
		s.opens = append(s.opens, open)
	}
	n := max(1, int(math.Round(d.Seconds()*editorBurstRate)))
	var lat []time.Duration
	start := time.Now()
	for len(lat) < n {
		b := s.in.trace[s.next%len(s.in.trace)]
		s.next++
		uri, buf := s.in.docs[b.doc].name, s.bufs[b.doc]
		changes := buf.edit(b)
		s.edited[b.doc] = true
		span := tr.begin("lsp.burst", 0, int64(s.next))
		var err error
		for _, c := range changes {
			s.version[b.doc]++
			if err = s.cl.change(uri, s.version[b.doc], c); err != nil {
				break
			}
		}
		t0 := time.Now()
		var f frame
		if err == nil {
			f, err = s.cl.pull(uri)
		}
		tr.end(span)
		if err == nil {
			var h head
			if h, err = peek(f.body); err == nil && h.kind != "full" {
				err = fmt.Errorf("pull answered a %q report", h.kind)
			}
		}
		if !ck.check(err == nil, "burst %d on %s: %v", s.next, uri, err) {
			break
		}
		lat = append(lat, f.at.Sub(t0))
	}
	return loopResult{ops: len(lat), busy: time.Since(start), lat: lat}
}

// settle waits for the server's debounced re-lint of every document
// edited since the last settle, which it runs a beat after the last
// didChange even though the pull already answered, and checks the
// diagnostics it publishes against a from-scratch lint.
func (s *editorSystem) settle(ck *tally) {
	if len(s.edited) == 0 {
		return
	}
	want := map[string]int{}
	for i := range s.edited {
		want[s.in.docs[i].name] = s.version[i]
	}
	got, err := s.cl.awaitPublished(want)
	for i := range s.edited {
		uri := s.in.docs[i].name
		ck.check(err == nil && sameDiagnostics(got[uri].diags, s.linter.CheckString(uri, string(s.bufs[i].text))),
			"debounced diagnostics of %s version %d differ from a from-scratch lint (err %v)", uri, s.version[i], err)
	}
	clear(s.edited)
}

// finish checks that the final pull of every document equals a
// from-scratch lint of the text the edits produced.
func (s *editorSystem) finish(ck *tally) []note {
	for i, d := range s.in.docs {
		f, err := s.cl.pull(d.name)
		var diags []lspDiagnostic
		if err == nil {
			diags, err = pulledDiagnostics(f)
		}
		ck.check(err == nil && sameDiagnostics(diags, s.linter.CheckString(d.name, string(s.bufs[i].text))),
			"final pull of %s differs from a from-scratch lint (err %v)", d.name, err)
	}
	od := newDist(s.opens)
	return []note{
		{"open_ms", ms(od.percentile(50)), fmt.Sprintf("ms (n=%d)", len(od))},
		{"document.kib", float64(len(s.bufs[len(s.bufs)-1].text)) / 1024, "KiB"},
	}
}

// reopen closes document i and opens it again at its current text.
func (s *editorSystem) reopen(i int, ck *tally) (time.Duration, error) {
	if err := s.cl.closeDoc(s.in.docs[i].name); err != nil {
		return 0, err
	}
	return s.open(i, ck)
}
