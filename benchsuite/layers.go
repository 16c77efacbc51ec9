package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"time"

	"weblint/internal/engine"
	"weblint/internal/htmltoken"
	"weblint/internal/lint"
	"weblint/internal/lsp"
	"weblint/internal/render"
	"weblint/internal/resultcache"
	"weblint/internal/warn"
)

// The layer probes drive each layer's public entry point directly, one
// call at a time, on the workload's own documents, so every per-layer
// metric exists for every workload and says what that layer costs on
// that workload's inputs. Every call is a span in the run's trace.

// probeReps is how many times the sweep repeats; times are the median
// repetition.
const probeReps = 3

// Session and LSP probe sizes at scale 1: a p99 needs 1000 samples.
const (
	sessionEdits = 1000
	lspBursts    = 200
)

// probeLayers runs every probe on docs; scale shrinks the Session and
// LSP probes for the smoke tests.
func probeLayers(docs []doc, style string, seed int64, scale float64, tr *tracer, ck *tally, out io.Writer) map[string]float64 {
	l := lint.MustNew(lint.Options{})
	vals := map[string]float64{}
	sw := sweep(l, docs, style, tr, ck)
	sw.metrics(vals)
	fmt.Fprintf(out, "  per-document pipeline on %d documents (%.1f KiB): lint %.1f%% (htmltoken %.1f%% by subtraction, core %.1f%%), render.%s %.1f%%\n",
		len(docs), float64(sw.bytes)/1024,
		100*(1-vals["render.share"]), 100*vals["htmltoken.share"]*(1-vals["render.share"]),
		100*(1-vals["htmltoken.share"])*(1-vals["render.share"]), style, 100*vals["render.share"])

	vals["engine.speedup"] = probeEngine(l, docs, style, tr, ck)

	for k, v := range probeGateway(docs, tr, ck) {
		vals[k] = v
	}
	largest := docs[0]
	for _, d := range docs {
		if len(d.src) > len(largest.src) {
			largest = d
		}
	}
	edits := scaled(sessionEdits, scale)
	trace := editTrace(seed, edits, 1)
	vals["session.apply_ms.p50"], vals["session.apply_ms.p99"], vals["session.fallback_ratio"] = probeSession(l, largest, trace, edits, tr, ck)
	vals["lsp.open_ms"], vals["lsp.overhead_ms.p50"], vals["lsp.response_kib.p50"] = probeLSP(l, largest, trace[:scaled(lspBursts, scale)], tr, ck)
	return vals
}

// sweepResult holds one measurement per repetition of the sweep.
type sweepResult struct {
	bytes, tokens, msgs int
	allocs              uint64
	sarifBytes          int64
	// Per repetition, summed over the documents.
	tokenize, lint, primary, keyof []time.Duration
	render                         map[string][]time.Duration
}

// sweep times each pipeline layer over docs, one call at a time: the
// per-document pipeline (lint, then render in the workload's style)
// under a doc span, then the tokenizer alone, each renderer replaying
// the recorded stream, and the cache key.
func sweep(l *lint.Linter, docs []doc, style string, tr *tracer, ck *tally) *sweepResult {
	sw := &sweepResult{bytes: totalBytes(docs), render: map[string][]time.Duration{}}
	raw := make([][]byte, len(docs))
	for i, d := range docs {
		raw[i] = []byte(d.src)
	}
	fp := l.ConfigFingerprint()
	tz := htmltoken.New("")
	var tok htmltoken.Token
	for rep := range probeReps {
		var lintT, primaryT, tokT, keyT time.Duration
		tokens, msgs := 0, 0
		recs := make([]warn.Recorder, len(docs))
		for i, d := range docs {
			root := tr.begin("doc", 0, int64(i))
			sp := tr.begin("lint", root, int64(i))
			t0 := time.Now()
			l.CheckStringTo(d.name, d.src, &recs[i])
			t1 := time.Now()
			tr.end(sp)
			sp = tr.begin("render."+style, root, int64(i))
			r, _ := render.New(style, io.Discard)
			recs[i].Replay(r)
			r.Close()
			t2 := time.Now()
			tr.end(sp)
			tr.end(root)
			lintT += t1.Sub(t0)
			primaryT += t2.Sub(t1)
			msgs += len(recs[i].Messages)
		}
		// The tokenizer runs inside lint; its share of lint time is
		// estimated by subtracting a standalone pass.
		for i, d := range docs {
			sp := tr.begin("htmltoken.tokenize", 0, int64(i))
			t0 := time.Now()
			tz.Reset(d.src)
			for tz.NextInto(&tok) {
				tokens++
			}
			tokT += time.Since(t0)
			tr.end(sp)
		}
		for _, st := range []string{"lint", "json", "sarif"} {
			var took time.Duration
			for i := range docs {
				var dg digest
				sp := tr.begin("render.replay."+st, 0, int64(i))
				t0 := time.Now()
				r, _ := render.New(st, &dg)
				recs[i].Replay(r)
				r.Close()
				took += time.Since(t0)
				tr.end(sp)
				if st == "sarif" && rep == 0 {
					sw.sarifBytes += dg.n
				}
			}
			sw.render[st] = append(sw.render[st], took)
		}
		for i := range docs {
			sp := tr.begin("resultcache.keyof", 0, int64(i))
			t0 := time.Now()
			resultcache.KeyOf(fp, raw[i])
			keyT += time.Since(t0)
			tr.end(sp)
		}
		if rep == 0 {
			sw.tokens, sw.msgs = tokens, msgs
		}
		ck.check(tokens == sw.tokens && msgs == sw.msgs,
			"sweep repetition %d counted %d tokens and %d messages, the first %d and %d", rep, tokens, msgs, sw.tokens, sw.msgs)
		sw.lint = append(sw.lint, lintT)
		sw.primary = append(sw.primary, primaryT)
		sw.tokenize = append(sw.tokenize, tokT)
		sw.keyof = append(sw.keyof, keyT)
	}

	// Allocations, in a lint pass of their own: ReadMemStats stops the
	// world, so it brackets the pass, not each document.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, d := range docs {
		l.CheckStringTo(d.name, d.src, &warn.Collector{})
	}
	runtime.ReadMemStats(&after)
	sw.allocs = after.Mallocs - before.Mallocs
	return sw
}

// med returns the median of per-repetition values f(i).
func med(n int, f func(i int) float64) float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = f(i)
	}
	return median(xs)
}

func ns(d time.Duration) float64 { return float64(d) }

func (sw *sweepResult) metrics(vals map[string]float64) {
	b, kib, msgs := float64(sw.bytes), float64(sw.bytes)/1024, float64(max(sw.msgs, 1))
	vals["htmltoken.ns_per_byte"] = med(probeReps, func(i int) float64 { return ns(sw.tokenize[i]) }) / b
	vals["htmltoken.tokens_per_kib"] = float64(sw.tokens) / kib
	vals["htmltoken.share"] = med(probeReps, func(i int) float64 { return ns(sw.tokenize[i]) / ns(sw.lint[i]) })
	vals["core.ns_per_byte"] = med(probeReps, func(i int) float64 { return ns(sw.lint[i] - sw.tokenize[i]) }) / b
	vals["core.allocs_per_kib"] = float64(sw.allocs) / kib
	vals["core.msgs_per_kib"] = float64(sw.msgs) / kib
	for _, st := range []string{"lint", "json", "sarif"} {
		vals["render.ns_per_msg."+st] = med(probeReps, func(i int) float64 { return ns(sw.render[st][i]) }) / msgs
	}
	vals["render.bytes_per_msg.sarif"] = float64(sw.sarifBytes) / msgs
	vals["render.share"] = med(probeReps, func(i int) float64 {
		return ns(sw.primary[i]) / ns(sw.lint[i]+sw.primary[i])
	})
	vals["resultcache.keyof_ns_per_byte"] = med(probeReps, func(i int) float64 { return ns(sw.keyof[i]) }) / b
}

// engineReps is how many one-worker/GOMAXPROCS-worker pairs the engine
// probe times. A pair runs back to back, so the machine's drift cancels
// in its ratio.
const engineReps = 5

// probeEngine runs docs through engine.RunTo at one worker and at
// GOMAXPROCS workers, in pairs, and returns the median pair's
// speed-up. Every output must equal a sequential CheckString + render
// pass.
func probeEngine(l *lint.Linter, docs []doc, style string, tr *tracer, ck *tally) float64 {
	jobs := make([]engine.Job, len(docs))
	for i, d := range docs {
		jobs[i] = engine.Job{Name: d.name, Src: []byte(d.src)}
	}
	var ref digest
	if err := renderSequential(l, docs, style, &ref); !ck.check(err == nil, "engine probe reference: %v", err) {
		return 0
	}
	run := func(workers, rep int) time.Duration {
		eng := &engine.Engine{Linter: l, Workers: workers}
		var out digest
		r, _ := render.New(style, &out)
		sp := tr.begin(fmt.Sprintf("engine.run_to.j%d", workers), 0, int64(rep))
		t0 := time.Now()
		err := eng.RunTo(jobs, r)
		cerr := r.Close()
		took := time.Since(t0)
		tr.end(sp)
		ck.check(err == nil && cerr == nil && out == ref,
			"engine at %d workers: output differs from the sequential reference", workers)
		return took
	}
	ratios := make([]float64, engineReps)
	for rep := range ratios {
		ratios[rep] = float64(run(1, rep)) / float64(run(runtime.GOMAXPROCS(0), rep))
	}
	return median(ratios)
}

// probeGateway submits every document through a freshly wired gateway
// handler, without a network: a new variant as html (a miss), the same
// again (a hit), a second variant as json (miss, then hit), and a
// third as sarif (a miss). It returns the median server time of each
// kind and the mean html response size.
func probeGateway(docs []doc, tr *tracer, ck *tally) map[string]float64 {
	mux, err := newGateway()
	if !ck.check(err == nil, "gateway probe: %v", err) {
		return nil
	}
	steps := []struct {
		variant       int
		format, cache string
	}{{1, "html", "miss"}, {1, "html", "hit"}, {2, "json", "miss"}, {2, "json", "hit"}, {3, "sarif", "miss"}}
	times := map[string][]float64{}
	htmlBytes := 0
	for i, d := range docs {
		for _, st := range steps {
			body := "format=" + st.format + "&html=" + url.QueryEscape(fmt.Sprintf("<!-- probe %d.%d -->\n", i, st.variant)+d.src)
			req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(body))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			rec := httptest.NewRecorder()
			kind := st.cache + "_" + st.format
			sp := tr.begin("gateway."+st.cache+"."+st.format, 0, int64(i))
			t0 := time.Now()
			mux.ServeHTTP(rec, req)
			took := time.Since(t0)
			tr.end(sp)
			ck.check(rec.Code == http.StatusOK && rec.Header().Get("X-Weblint-Cache") == st.cache,
				"gateway probe %s of document %d: status %d, cache %q", kind, i, rec.Code, rec.Header().Get("X-Weblint-Cache"))
			times[kind] = append(times[kind], ms(took))
			if st.format == "html" {
				htmlBytes += rec.Body.Len()
			}
		}
	}
	vals := map[string]float64{"gateway.response_kib.html": float64(htmlBytes) / float64(2*len(docs)) / 1024}
	for kind, xs := range times {
		vals["gateway."+kind+"_ms"] = median(xs)
	}
	return vals
}

// probeSession applies the first n edits of the trace one at a time to
// a lint.Session over d and returns the p50 and p99 apply times in ms
// and the share of edits that fell back to linting to the end of the
// document. The final findings must equal a from-scratch lint.
func probeSession(l *lint.Linter, d doc, trace []burst, n int, tr *tracer, ck *tally) (p50, p99, fallback float64) {
	buf := &buffer{text: []byte(d.src)}
	buf.jump(0.5)
	s := lint.NewSession(l, d.name, d.src)
	var lat []time.Duration
	for _, b := range trace {
		for _, c := range buf.edit(b) {
			sp := tr.begin("session.apply", 0, int64(len(lat)))
			t0 := time.Now()
			s.Apply([]lint.Edit{c.span})
			lat = append(lat, time.Since(t0))
			tr.end(sp)
		}
		if len(lat) >= n {
			break
		}
	}
	ck.check(sameMessages(s.Messages(), l.CheckString(d.name, string(buf.text))),
		"session findings after %d edits differ from a from-scratch lint", len(lat))
	st := s.Stats()
	dl := newDist(lat)
	return ms(dl.percentile(50)), ms(dl.percentile(99)), float64(st.FullTail) / float64(max(st.Applies, 1))
}

func sameMessages(a, b []warn.Message) bool {
	if len(a) != len(b) {
		return false
	}
	var f warn.Lint
	for i := range a {
		if f.Format(a[i]) != f.Format(b[i]) {
			return false
		}
	}
	return true
}

// probeLSP opens d in an LSP server three times (didOpen to published
// diagnostics), then sends the bursts, each as didChange notifications
// and a pull, while a lint.Session beside it applies the same edits.
// It returns the median open time, the median of each burst's LSP
// latency minus its direct Session.Apply time, and the median pull
// response size.
func probeLSP(l *lint.Linter, d doc, bursts []burst, tr *tracer, ck *tally) (open, overhead, respKiB float64) {
	cl := startLSP(lsp.Options{})
	defer cl.close()
	if !ck.check(cl.initialize() == nil, "lsp probe: initialize failed") {
		return
	}
	uri := "untitled:probe.html"
	var opens []float64
	version := 0
	for i := range 3 {
		if i > 0 {
			if err := cl.closeDoc(uri); !ck.check(err == nil, "lsp probe close: %v", err) {
				return
			}
		}
		version++
		sp := tr.begin("lsp.open", 0, int64(i))
		diags, took, err := cl.open(uri, version, d.src)
		tr.end(sp)
		ck.check(err == nil && sameDiagnostics(diags, l.CheckString(uri, d.src)), "lsp probe open: %v", err)
		opens = append(opens, ms(took))
	}
	buf := &buffer{text: []byte(d.src)}
	buf.jump(0.5)
	direct := lint.NewSession(l, uri, d.src)
	var over, sizes []float64
	var last frame
	for i, b := range bursts {
		changes := buf.edit(b)
		spans := make([]lint.Edit, len(changes))
		var err error
		for j, c := range changes {
			spans[j] = c.span
			version++
			if err = cl.change(uri, version, c); err != nil {
				break
			}
		}
		sp := tr.begin("lsp.pull", 0, int64(i))
		t0 := time.Now()
		if err == nil {
			last, err = cl.pull(uri)
		}
		tr.end(sp)
		if !ck.check(err == nil, "lsp probe burst %d: %v", i, err) {
			return
		}
		viaLSP := last.at.Sub(t0)
		t0 = time.Now()
		direct.Apply(spans)
		over = append(over, ms(viaLSP-time.Since(t0)))
		sizes = append(sizes, float64(len(last.body))/1024)
	}
	diags, err := pulledDiagnostics(last)
	ck.check(err == nil && sameDiagnostics(diags, l.CheckString(uri, string(buf.text))),
		"lsp probe: final pull differs from a from-scratch lint (err %v)", err)
	return median(opens), median(over), median(sizes)
}
