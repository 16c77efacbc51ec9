// Package engine implements weblint's parallel batch-lint engine: a
// bounded worker pool that takes a batch of lint jobs (a path, a URL,
// or in-memory bytes), checks them on GOMAXPROCS workers through one
// shared Linter, and streams results back in deterministic input
// order.
//
// Every fleet surface in the repo lints a corpus, not a page: the
// command line, the -R site recursion, and the poacher robot. The
// engine is the shared substrate: Lint is the one per-document step
// (read, check, sort by line, contain a panic) that all three run,
// and Run schedules it over a batch; the surfaces own the jobs.
// Ordering is part of the contract — the output of a parallel run is
// byte-identical to the sequential run regardless of how the scheduler
// interleaves workers, so adding -j can never change what a build log
// or a diff-based test sees.
//
// # Concurrency model
//
// One Linter is shared by all workers; it is safe for concurrent use
// (each check borrows pooled per-check state, and the spec and warning
// set are read-only). Results are buffered per input slot: the
// dispatcher allocates a single-result cell per job and queues the
// cells in input order, workers fill cells as they finish, and the
// collector drains cells strictly in queue order. A window bounds how
// far computation may run ahead of the collector, so a slow early
// document cannot make a fast batch buffer unbounded results.
//
// That scheduler, OrderedSlice, is the repo's one ordered fan-out, and
// it is generic over jobs and results: Run schedules the CLI's batches
// on it, sitewalk the -R walk's pages, the robot each crawl level's
// fetches, and poacher its off-site link probes. None of them starts a
// goroutine of its own.
package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"weblint/internal/bufpool"
	"weblint/internal/lint"
	"weblint/internal/warn"
)

// Job names one document for the engine. Exactly one of Src, Path and
// URL should be set; they are consulted in that order.
type Job struct {
	// Name labels the document in messages and in Result.Name, whatever
	// its source. When empty it defaults to Path or URL, or "-" for Src.
	Name string
	// Path is a file to read from disk (lint.ReadFile).
	Path string
	// URL is a page to retrieve over HTTP (lint.ReadURL); a body over
	// the fetch size cap fails the job.
	URL string
	// Src is an in-memory document, checked zero-copy; it must not be
	// mutated until the job's Result has been delivered.
	Src []byte
}

// Result is the outcome of one job.
type Result struct {
	// Index is the job's position in the input stream, counting from
	// zero. Run delivers results in increasing Index order; Lint leaves
	// it zero.
	Index int
	// Name is the document name messages carry.
	Name string
	// Src is the document the job was checked against: the job's own
	// Src, or the bytes read from its Path or URL. It is valid only
	// until Release, which Run calls when emit returns; copy it to keep
	// it. RunAll and RunTo never expose it, and it is nil when Err is
	// set.
	Src []byte
	// Recorder holds the job's finding stream: Messages in source
	// order, and the IDs of emissions dropped because their message was
	// disabled, which RunTo replays so per-rule suppression stats
	// survive the ordered-delivery hop. It is empty when Err is set.
	warn.Recorder
	// Err is set when the document could not be obtained (unreadable
	// file, failed fetch) or the check panicked. The engine itself
	// never stops on an errored job — every job runs and delivers —
	// but the consumer decides: Run's emit callback may cancel, and
	// RunTo cancels the batch on the first error it sees.
	Err error

	buf *bytes.Buffer // pooled read buffer behind Src, recycled by Release
}

// Engine is a reusable batch-lint configuration. The zero value lints
// with a default Linter on GOMAXPROCS workers; an Engine may be shared
// and its methods called concurrently.
type Engine struct {
	// Linter checks the documents; nil means a default Linter,
	// constructed once on first use.
	Linter *lint.Linter
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS. At most
	// 4x that many results are buffered ahead of the collector.
	Workers int

	defaultOnce   sync.Once
	defaultLinter *lint.Linter
}

// New returns an Engine checking through l (nil for a default Linter).
func New(l *lint.Linter) *Engine {
	return &Engine{Linter: l}
}

func (e *Engine) linter() *lint.Linter {
	if e.Linter != nil {
		return e.Linter
	}
	e.defaultOnce.Do(func() { e.defaultLinter = lint.MustNew(lint.Options{}) })
	return e.defaultLinter
}

func (e *Engine) workers() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run lints every job and calls emit once per job, in input order,
// from the calling goroutine. Result.Src is valid until emit returns,
// when Run releases the result. Returning false from emit cancels the
// batch: no further jobs are dispatched, already-dispatched jobs finish
// and are discarded, and Run returns once the pool drains.
func (e *Engine) Run(jobs []Job, emit func(Result) bool) {
	w := e.workers()
	OrderedSlice(w, 4*w, jobs, func(i int, j Job) Result {
		r := e.Lint(j)
		r.Index = i
		return r
	}, func(_ int, r Result) bool {
		ok := emit(r)
		r.Release()
		return ok
	})
}

// RunAll lints every job and returns the results in input order, with
// Src cleared; a convenience for batches small enough to hold in
// memory at once.
func (e *Engine) RunAll(jobs []Job) []Result {
	out := make([]Result, 0, len(jobs))
	e.Run(jobs, func(r Result) bool {
		r.Src, r.buf = nil, nil // Run releases its own copy
		out = append(out, r)
		return true
	})
	return out
}

// RunTo lints every job and streams every message into sink: each
// job's messages are written, in source order, as soon as the job's
// turn in the input order comes up, so a consumer sees findings the
// moment each document completes instead of after the whole batch.
// Within-batch lookahead is bounded by the engine window, so memory
// stays bounded however large the batch is.
//
// The first operational failure (unreadable file, failed fetch, check
// panic) cancels the batch — matching sequential CLI semantics, no
// further documents are read or fetched — and is returned. The sink
// returning false also cancels the batch; RunTo then returns nil.
func (e *Engine) RunTo(jobs []Job, sink warn.Sink) error {
	var firstErr error
	e.Run(jobs, func(r Result) bool {
		if r.Err != nil {
			// Job errors already name their document (path, URL, or
			// panic recovery text), so no extra wrapping.
			firstErr = r.Err
			return false
		}
		return r.Replay(sink)
	})
	return firstErr
}

// Lint checks one job on the calling goroutine: the per-document step
// every batch surface shares. A Path or URL job is read into a pooled
// buffer first; a read or fetch error fails before the check runs, so
// it records nothing. The findings are sorted by line, and a panic in
// the check is recovered into Err, so a poisoned document cannot kill
// a worker. Call Release once the result's Src is no longer needed.
func (e *Engine) Lint(j Job) (res Result) {
	res.Name = j.Name
	defer func() {
		if p := recover(); p != nil {
			res.Recorder, res.Src = warn.Recorder{}, nil
			res.Err = fmt.Errorf("engine: check of %s panicked: %v", res.Name, p)
		}
	}()
	res.Src = j.Src
	if res.Src == nil {
		res.buf = bufpool.Get()
		switch {
		case j.Path != "":
			if res.Name == "" {
				res.Name = j.Path
			}
			res.Err = lint.ReadFile(j.Path, res.buf)
		case j.URL != "":
			if res.Name == "" {
				res.Name = j.URL
			}
			res.Err = lint.ReadURL(context.TODO(), j.URL, res.buf)
		default:
			res.Err = errors.New("engine: job has no source (Src, Path or URL)")
		}
		if res.Err != nil {
			return res
		}
		res.Src = res.buf.Bytes()
	} else if res.Name == "" {
		res.Name = "-"
	}
	// Check into the result's Recorder: it collects the messages (sorted
	// below, matching CheckString's contract) and additionally captures
	// suppressed-emission IDs for per-rule stats.
	e.linter().Check(context.TODO(), res.Name, res.Src, &res.Recorder)
	warn.SortByLine(res.Messages)
	return res
}

// Release recycles the pooled buffer behind a Path or URL job's Src
// and clears Src. The findings stay valid.
func (r *Result) Release() {
	if r.buf != nil {
		bufpool.Put(r.buf)
	}
	r.Src, r.buf = nil, nil
}

// OrderedSlice is the fan-out/fan-in core, the repo's one ordered
// fan-out: it runs fn over jobs on `workers` goroutines and calls emit
// with every result, in input order, from the calling goroutine. Each
// job gets a one-slot result cell; cells enter a queue in dispatch
// order and the caller drains them in that order, so emission overlaps
// the computation of later jobs but never reorders. window bounds how
// many jobs may be past dispatch and not yet emitted. Its users are
// Run, sitewalk.Walk, robot.Robot.CrawlWhile and poacher's
// -check-external probes. Even one worker overlaps the computation of
// job i+1 with the emission of job i.
//
// Returning false from emit cancels the run: dispatch stops (a job
// already racing past the window may still run), in-flight jobs finish
// and are discarded. OrderedSlice returns when the workers have
// exited.
func OrderedSlice[J, R any](workers, window int, jobs []J, fn func(int, J) R, emit func(int, R) bool) {
	if workers < 1 {
		workers = 1
	}
	if window < workers {
		window = workers
	}
	type task struct {
		i    int
		cell chan R
	}
	tasks := make(chan task)
	order := make(chan chan R, window)
	stop := make(chan struct{})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range tasks {
				t.cell <- fn(t.i, jobs[t.i])
			}
		}()
	}
	go func() {
	dispatch:
		for i := range jobs {
			// The unconditional check first: once stop is closed, at
			// most one more job (already past this line) dispatches,
			// even when the window also has room.
			select {
			case <-stop:
				break dispatch
			default:
			}
			cell := make(chan R, 1)
			select {
			case <-stop:
				break dispatch
			case order <- cell: // blocks when the window is full
			}
			tasks <- task{i, cell}
		}
		close(tasks)
		wg.Wait()
		close(order)
	}()
	i, stopped := 0, false
	for cell := range order {
		r := <-cell
		if !stopped && !emit(i, r) {
			stopped = true
			close(stop)
		}
		i++
	}
}
