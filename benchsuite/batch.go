package main

import (
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"weblint/internal/engine"
	"weblint/internal/lint"
	"weblint/internal/render"
	"weblint/internal/warn"
)

// The batch workloads are the CLI/CI user: `weblint -j N pages...`
// through engine.RunTo into a renderer. A pass over the whole corpus is
// the unit a CI job waits for: p50_ms and tail_ms time passes, and
// ops_per_s counts the pages they lint.

var siteBatch = &workload{
	name: "site-batch",
	why: "CI lints a site of mostly clean pages (24 KiB median, error rate 0.02) with the batch engine: " +
		"tokenizer and checker dominate; pages are passed in memory, so file intake is not measured",
	style: "lint",
	prepare: func(o options, ck *tally) (inputs, error) {
		// The pages are linted from memory, not from files, so this
		// workload does not measure file intake (CheckFile and its read
		// buffer pool). With file jobs, checks of pages under 64 KiB can
		// come out wrong, because a pooled tokenizer's name cache keeps
		// aliasing a read buffer that a later file read overwrites, and a
		// benchmark run must not fail. Once that is fixed, site-batch
		// should switch to file jobs and its baseline be measured again.
		sizes := lognormalSizes(scaled(200, o.scale), 24<<10, 1.0, 2<<10, 512<<10)
		return prepareBatch(o, "site-batch", sizes, 0.02, "lint", false, 80*time.Millisecond)
	},
}

var legacySARIF = &workload{
	name: "legacy-sarif",
	why: "CI code scanning of large error-dense legacy pages (64 KiB-1 MiB, error rate 0.25) into SARIF: " +
		"checker, emitter and renderer dominate, a tokenizer gain should barely show",
	style: "sarif",
	prepare: func(o options, ck *tally) (inputs, error) {
		sizes := logUniformSizes(scaled(24, o.scale), 64<<10, 1<<20)
		return prepareBatch(o, "legacy-sarif", sizes, 0.25, "sarif", true, 420*time.Millisecond)
	},
}

func scaled(n int, s float64) int { return max(1, int(math.Round(float64(n)*s))) }

// digest is an io.Writer that keeps only the CRC-32 and length of
// what is written, so a pass's output can be compared with its
// reference without holding either in memory.
type digest struct {
	crc uint32
	n   int64
}

func (d *digest) Write(p []byte) (int, error) {
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p)
	d.n += int64(len(p))
	return len(p), nil
}

type batchInputs struct {
	// pass is the time one pass takes on the nominal machine; a stretch
	// of measurement of d makes d/pass passes.
	pass  time.Duration
	style string
	docs  []doc
	dir   string
	jobs  []engine.Job
	bytes int
	ref   digest // output of a sequential CheckString + render pass
}

// prepareBatch builds the engine jobs over the generated pages, from
// files in a directory of their own when fromDisk is set, and renders
// the reference output sequentially.
func prepareBatch(o options, name string, sizes []int, rate float64, style string, fromDisk bool, pass time.Duration) (*batchInputs, error) {
	in := &batchInputs{pass: pass, style: style, docs: documents(o.seed, name, sizes, rate)}
	if fromDisk {
		dir, err := os.MkdirTemp(o.dir, name+"-")
		if err != nil {
			return nil, err
		}
		in.dir = dir
	}
	l, err := lint.New(lint.Options{})
	if err != nil {
		return nil, err
	}
	named := make([]doc, len(in.docs))
	for i, d := range in.docs {
		// A file job's messages are named after its path.
		name, job := d.name, engine.Job{Name: d.name, Src: []byte(d.src)}
		if fromDisk {
			name = filepath.Join(in.dir, d.name)
			job = engine.Job{Path: name}
			if err := os.WriteFile(name, []byte(d.src), 0o644); err != nil {
				in.cleanup()
				return nil, err
			}
		}
		in.jobs = append(in.jobs, job)
		in.bytes += len(d.src)
		named[i] = doc{name: name, src: d.src}
	}
	if err := renderSequential(l, named, style, &in.ref); err != nil {
		in.cleanup()
		return nil, err
	}
	return in, nil
}

// renderSequential renders docs as a one-document-at-a-time run
// would: each checked on its own, its findings sorted by line and
// replayed, suppression stats included, into one renderer.
func renderSequential(l *lint.Linter, docs []doc, style string, w io.Writer) error {
	r, err := render.New(style, w)
	if err != nil {
		return err
	}
	for _, d := range docs {
		var rec warn.Recorder
		l.CheckStringTo(d.name, d.src, &rec)
		warn.SortByLine(rec.Messages)
		rec.Replay(r)
	}
	return r.Close()
}

func (in *batchInputs) probeDocs() []doc { return sample(in.docs, 1<<20) }

func (in *batchInputs) cleanup() {
	if in.dir != "" {
		os.RemoveAll(in.dir)
	}
}

func (in *batchInputs) setup(ck *tally) (system, error) {
	l, err := lint.New(lint.Options{})
	if err != nil {
		return nil, err
	}
	s := &batchSystem{in: in, eng: &engine.Engine{Linter: l, Workers: runtime.GOMAXPROCS(0)}}
	s.pass(nil, -1, ck) // warm-up: linter pools and the page cache
	return s, nil
}

type batchSystem struct {
	in     *batchInputs
	eng    *engine.Engine
	passes int64         // measured passes so far
	busy   time.Duration // and the time they took
}

func (s *batchSystem) close() {}

// pass lints the corpus once and checks the output is byte-identical
// to the sequential reference.
func (s *batchSystem) pass(tr *tracer, i int64, ck *tally) time.Duration {
	var out digest
	r, _ := render.New(s.in.style, &out)
	root := tr.begin("engine.run_to", 0, i)
	var sink warn.Sink = r
	var ts *timedSink
	if tr != nil {
		ts = &timedSink{next: r, tr: tr, parent: root, req: i}
		sink = ts
	}
	t0 := time.Now()
	err := s.eng.RunTo(s.in.jobs, sink)
	if ts != nil {
		ts.flush()
	}
	closing := tr.begin("render.close", root, i)
	cerr := r.Close()
	el := time.Since(t0)
	tr.end(closing)
	tr.end(root)
	ck.check(err == nil && cerr == nil && out == s.in.ref,
		"%s pass %d: output differs from the sequential reference (err %v, close %v)", s.in.style, i, err, cerr)
	return el
}

func (s *batchSystem) settle(*tally) {}

func (s *batchSystem) measure(d time.Duration, _ float64, tr *tracer, ck *tally) loopResult {
	lat := make([]time.Duration, max(1, int(math.Round(float64(d)/float64(s.in.pass)))))
	start := time.Now()
	for i := range lat {
		lat[i] = s.pass(tr, s.passes, ck)
		s.passes++
	}
	busy := time.Since(start)
	s.busy += busy
	return loopResult{ops: len(lat) * len(s.in.jobs), busy: busy, lat: lat}
}

func (s *batchSystem) finish(ck *tally) []note {
	return []note{
		{"corpus.pages", float64(len(s.in.jobs)), "count"},
		{"corpus.mb", float64(s.in.bytes) / 1e6, "MB"},
		{"throughput_mb_s", float64(s.passes) * float64(s.in.bytes) / 1e6 / s.busy.Seconds(), "MB/s"},
	}
}

// timedSink wraps a pass's renderer and records one render.write span
// per document. RunTo writes a document's messages back to back, so
// the span from its first Write to the end of its last is the time
// rendering that document.
type timedSink struct {
	next        render.Renderer
	tr          *tracer
	parent      int
	req         int64
	file        string
	first, last time.Time
}

func (s *timedSink) Write(m warn.Message) bool {
	t0 := time.Now()
	if m.File != s.file {
		s.flush()
		s.file, s.first = m.File, t0
	}
	ok := s.next.Write(m)
	s.last = time.Now()
	return ok
}

// ObserveSuppressed forwards suppression stats to renderers that count
// them.
func (s *timedSink) ObserveSuppressed(id string) {
	if o, ok := s.next.(warn.SuppressionObserver); ok {
		o.ObserveSuppressed(id)
	}
}

func (s *timedSink) flush() {
	if s.file != "" {
		s.tr.add("render.write", s.parent, s.req, s.first, s.last)
	}
}
