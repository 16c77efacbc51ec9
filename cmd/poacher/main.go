// Command poacher is weblint's site-checking robot: it traverses all
// accessible pages on a site, runs weblint over each, and performs
// basic link validation, as described in the paper's Section 4.5.
//
// Diagnostics — lint findings, broken pages, broken external links —
// flow through one renderer sink, so the crawl can report as human
// text or as a machine-readable stream (-format json, -format sarif)
// for CI. Exit status follows -fail-on: 0 when no finding reaches the
// threshold, 1 when one does, 2 on operational errors.
//
// Usage:
//
//	poacher [-max-pages 200] [-delay 500ms] [-check-external] http://site/
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"time"

	"weblint/internal/baseline"
	"weblint/internal/engine"
	"weblint/internal/linkcheck"
	"weblint/internal/lint"
	"weblint/internal/render"
	"weblint/internal/robot"
	"weblint/internal/warn"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("poacher", flag.ContinueOnError)
	maxPages := fs.Int("max-pages", 200, "maximum pages to fetch")
	maxDepth := fs.Int("max-depth", 16, "maximum link depth")
	delay := fs.Duration("delay", 0, "politeness delay between requests")
	prefetch := fs.Int("prefetch", 4, "pages fetched ahead of the linter (1 disables pipelining)")
	checkExternal := fs.Bool("check-external", false, "also validate off-site links with HEAD requests")
	quiet := fs.Bool("q", false, "only report problems, not progress")
	short := fs.Bool("s", false, "short messages (same as -format short)")
	format := fs.String("format", "", "output format: lint, short, terse, verbose, json, sarif")
	failOn := fs.String("fail-on", "any", "lowest severity that fails the crawl: error, warning, style (or any), never")
	pedantic := fs.Bool("pedantic", false, "enable all warnings")
	baselineFile := fs.String("baseline", "", "report (and fail on) only findings not recorded in this baseline file")
	baselineWrite := fs.String("baseline-write", "", "record the crawl's findings to a baseline file; the crawl exits 0")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: poacher [options] http://site/")
		return 2
	}
	start := fs.Arg(0)

	style := *format
	if style == "" {
		style = "lint"
		if *short {
			style = "short"
		}
	}
	threshold, ok := warn.ParseFailOn(*failOn)
	if !ok {
		fmt.Fprintf(os.Stderr, "poacher: unknown -fail-on threshold %q\n", *failOn)
		return 2
	}

	linter, err := lint.New(lint.Options{Pedantic: *pedantic})
	if err != nil {
		fmt.Fprintf(os.Stderr, "poacher: %v\n", err)
		return 2
	}
	renderer, err := render.New(style, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "poacher: %v\n", err)
		return 2
	}
	var sum warn.Summary
	var sink warn.Sink = sum.Sink(renderer)
	// Baseline layers: the filter forwards only findings the baseline
	// does not cover (so the renderer and the exit policy see just the
	// new ones); the recorder — outermost — captures everything for
	// -baseline-write. Each crawled page's body is handed to every
	// layer, below, so contexts hash the page actually crawled.
	var docs []func(name, src string)
	if *baselineFile != "" {
		base, err := baseline.Load(*baselineFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "poacher: %v\n", err)
			return 2
		}
		filter := baseline.NewFilter(base, sink)
		sink, docs = filter, append(docs, filter.Document)
	}
	var rec *baseline.Recorder
	if *baselineWrite != "" {
		rec = baseline.NewRecorder(sink)
		sink, docs = rec, append(docs, rec.Document)
	}
	// write honours the sink contract: once the renderer cancels,
	// nothing more is written and the crawl stops instead of politely
	// fetching pages nobody will see. Line-based renderers cancel as
	// soon as the output dies (closed pipe); sarif only writes at
	// Close, so a dead output surfaces there as an exit-2 error.
	cancelled := false
	write := func(m warn.Message) bool {
		if cancelled {
			return false
		}
		if !sink.Write(m) {
			cancelled = true
		}
		return !cancelled
	}

	// Machine-readable stdout must stay a pure diagnostics document:
	// progress and crawl statistics move to stderr for json/sarif.
	aux := os.Stdout
	if style == "json" || style == "sarif" {
		aux = os.Stderr
	}

	r := robot.NewRobot()
	r.MaxPages = *maxPages
	r.MaxDepth = *maxDepth
	r.Delay = *delay
	r.Prefetch = *prefetch

	stats := robot.NewCrawlStats()
	external := map[string]bool{}
	eng := engine.New(linter)
	var lintErr error // a check that panicked stops the crawl

	_, err = r.CrawlWhile(start, func(p robot.Page) bool {
		stats.Record(p)
		switch {
		case p.Err != nil:
			return write(warn.Message{
				ID: "bad-link", Category: warn.Error,
				File: p.URL, Line: 1,
				Text: fmt.Sprintf("fetch error: %v", p.Err),
			})
		case p.Status != http.StatusOK:
			return write(warn.Message{
				ID: "bad-link", Category: warn.Error,
				File: p.URL, Line: 1,
				Text: fmt.Sprintf("HTTP %d", p.Status),
			})
		}
		if !*quiet {
			fmt.Fprintf(aux, "checking %s (%d links)\n", p.URL, len(p.Links))
		}
		// The page goes through the engine's per-document step, as the
		// CLI's documents do: its findings come out sorted by line, and
		// its suppressions with them, which Replay feeds to the summary
		// and the json renderer. Converting the body never yields nil,
		// so an empty page is an empty document.
		found := eng.Lint(engine.Job{Name: p.URL, Src: []byte(p.Body)})
		if found.Err != nil {
			lintErr = found.Err
			return false
		}
		for _, doc := range docs {
			doc(p.URL, p.Body)
		}
		if !found.Replay(sink) {
			cancelled = true
			return false
		}
		for _, l := range p.Links {
			if linkcheck.IsExternal(l.URL) {
				external[l.URL] = true
			}
		}
		return true
	})
	if err == nil {
		err = lintErr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "poacher: %v\n", err)
		return 2
	}

	if *checkExternal && !cancelled && len(external) > 0 {
		var urls []string
		for u := range external {
			urls = append(urls, u)
		}
		sort.Strings(urls)
		checker := &linkcheck.Checker{
			UserAgent: "poacher/2.0",
			Client:    &http.Client{Timeout: 10 * time.Second},
		}
		results := checker.CheckAll(urls)
		for _, u := range urls { // sorted: deterministic stream order
			if res, ok := results[u]; ok && !res.OK {
				if !write(warn.Message{
					ID: "bad-link", Category: warn.Error,
					File: res.URL, Line: 1,
					Text: "broken external link: " + res.String(),
				}) {
					break
				}
			}
		}
	}

	if err := renderer.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "poacher: %v\n", err)
		return 2
	}
	if !*quiet {
		fmt.Fprint(aux, stats.Summary())
	}
	if rec != nil {
		if err := rec.File().WriteFile(*baselineWrite); err != nil {
			fmt.Fprintf(os.Stderr, "poacher: %v\n", err)
			return 2
		}
		return 0
	}
	if sum.Failures(threshold) > 0 {
		return 1
	}
	return 0
}
