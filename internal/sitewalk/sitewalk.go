// Package sitewalk implements weblint's -R switch: recursing through
// all directories in the local filesystem so a set of pages or an
// entire site can be checked with one command. The switch also enables
// additional warnings, checking whether directories have index files,
// and reporting orphan pages (which are not referred to by any other
// page checked). Local relative links are verified against the
// filesystem.
//
// The per-page phase (read, lint, extract links and anchors) runs on a
// bounded worker pool — Options.Workers, default GOMAXPROCS — and the
// link graph is merged in page order after each page completes, so the
// Report is identical to a sequential walk regardless of scheduling.
// Each page's source is read into a pooled buffer and dropped as soon
// as its links and anchors have been extracted: the walk's memory is
// bounded by the in-flight window, not by the size of the site.
package sitewalk

import (
	"context"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"weblint/internal/bufpool"
	"weblint/internal/engine"
	"weblint/internal/linkcheck"
	"weblint/internal/lint"
	"weblint/internal/warn"
)

// Options configures a site walk.
type Options struct {
	// Linter checks each page; nil means a default Linter.
	Linter *lint.Linter
	// CheckLocalLinks verifies that relative link targets exist on
	// disk (default true; set SkipLocalLinks to disable).
	SkipLocalLinks bool
	// CollectExternal gathers external URLs for a remote link
	// checker to validate.
	CollectExternal bool
	// Workers is the number of parallel workers for the per-page
	// read/lint/extract phase; 0 means GOMAXPROCS, 1 forces a
	// sequential walk. The Report is identical for every value.
	Workers int
	// Sink, when set, streams every message — each page's as soon as
	// the page's turn in walk order comes up, the site-level messages
	// (bad-fragment, no-index-file, orphan-page) after the last page —
	// instead of accumulating them in Report.Messages. The message
	// stream is identical to the Report slice for every worker count.
	// The sink returning false cancels the walk: undispatched pages
	// are never read, and Walk returns the report built so far.
	Sink warn.Sink
}

// Report is the outcome of walking a site.
type Report struct {
	// Pages are the HTML files checked, relative to the root,
	// sorted.
	Pages []string
	// Messages holds every message from every page, plus the
	// site-level messages (no-index-file, orphan-page, bad-link).
	Messages []warn.Message
	// External are the distinct external URLs found, sorted (only
	// when Options.CollectExternal was set).
	External []string
	// Cancelled reports that Options.Sink stopped the walk early by
	// returning false: the report covers only what ran before the
	// cancellation, and callers driving several walks into one sink
	// should stop too.
	Cancelled bool
}

// MessagesFor returns the messages whose File matches name.
func (r *Report) MessagesFor(name string) []warn.Message {
	var out []warn.Message
	for _, m := range r.Messages {
		if m.File == name {
			out = append(out, m)
		}
	}
	return out
}

// Walk checks every HTML page under root.
func Walk(root string, o Options) (*Report, error) {
	if o.Linter == nil {
		o.Linter = lint.MustNew(lint.Options{})
	}

	rep := &Report{}
	dirs := map[string][]string{} // dir (rel) -> html files within
	var pages []string

	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		if ext := strings.ToLower(filepath.Ext(p)); ext != ".html" && ext != ".htm" {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		pages = append(pages, rel)
		dir := path.Dir(rel)
		dirs[dir] = append(dirs[dir], path.Base(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(pages)
	rep.Pages = pages

	pageSet := map[string]bool{}
	for _, p := range pages {
		pageSet[p] = true
	}

	// Per-page phase: read, lint, extract links and anchors, and
	// resolve link targets, in parallel. Each worker drops the page
	// source (a pooled buffer) before returning — only the extracted
	// strings survive into the merge. Results are merged in page order,
	// so the link graph and the message stream come out exactly as a
	// sequential walk produces them.
	referenced := map[string]bool{}
	external := map[string]bool{}
	anchors := map[string]map[string]bool{} // page -> defined anchors
	var fragRefs []fragRef
	var walkErr error
	// emit delivers one message: into the caller's sink when streaming,
	// into Report.Messages otherwise. Returning false cancels the walk
	// and marks the report.
	emit := func(m warn.Message) bool {
		if o.Sink != nil {
			if !o.Sink.Write(m) {
				rep.Cancelled = true
				return false
			}
			return true
		}
		rep.Messages = append(rep.Messages, m)
		return true
	}
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	engine.OrderedSlice(workers, 0, pages,
		func(_ int, page string) pageResult {
			return checkPage(root, page, &o, pageSet)
		},
		func(_ int, res pageResult) bool {
			if res.err != nil {
				// Cancel the batch: in-flight pages finish and are
				// discarded, undispatched pages are never read.
				walkErr = res.err
				return false
			}
			if o.Sink == nil {
				rep.Messages = append(rep.Messages, res.Messages...)
			} else if !res.Replay(o.Sink) {
				rep.Cancelled = true
				return false
			}
			anchors[res.page] = res.anchors
			for _, t := range res.refs {
				referenced[t] = true
			}
			for _, u := range res.external {
				external[u] = true
			}
			fragRefs = append(fragRefs, res.fragRefs...)
			return true
		})
	if walkErr != nil {
		return nil, walkErr
	}
	if rep.Cancelled {
		return rep, nil
	}

	// Fragment targets: a link's #anchor must be defined in the page
	// it points at.
	for _, fr := range fragRefs {
		defined, known := anchors[fr.target]
		if !known {
			continue // target missing entirely: bad-link covers it
		}
		if !defined[fr.frag] {
			if !emit(warn.Message{
				ID: "bad-fragment", Category: warn.Warning,
				File: fr.page, Line: fr.line,
				Text: "anchor \"#" + fr.frag + "\" is not defined in " + fr.target,
			}) {
				return rep, nil
			}
		}
	}

	// Directory index checks.
	var dirNames []string
	for d := range dirs {
		dirNames = append(dirNames, d)
	}
	sort.Strings(dirNames)
	for _, d := range dirNames {
		if !hasIndex(dirs[d]) {
			display := d
			if display == "." {
				display = "./"
			}
			if !emit(warn.Message{
				ID: "no-index-file", Category: warn.Warning,
				File: display, Line: 1,
				Text: "directory " + display + " does not have an index file",
			}) {
				return rep, nil
			}
		}
	}

	// Orphan pages: not referenced by any other page, and not a
	// directory index (indexes are reachable via their directory).
	for _, page := range pages {
		if referenced[page] || isIndexName(path.Base(page)) {
			continue
		}
		if !emit(warn.Message{
			ID: "orphan-page", Category: warn.Warning,
			File: page, Line: 1,
			Text: "page " + page + " is not linked to by any other page checked",
		}) {
			return rep, nil
		}
	}

	if o.CollectExternal {
		for u := range external {
			rep.External = append(rep.External, u)
		}
		sort.Strings(rep.External)
	}
	return rep, nil
}

// fragRef records a link to a fragment anchor, validated after every
// page's anchors are known.
type fragRef struct {
	page, target, frag string
	line               int
}

// pageResult carries everything the merge phase needs from one page.
// It deliberately holds only extracted strings, never the source.
type pageResult struct {
	page string
	err  error
	// Recorder holds the lint messages, then bad-link messages, and the
	// disabled-rule emission IDs in order.
	warn.Recorder
	anchors  map[string]bool // fragment anchors defined in the page
	refs     []string        // local pages this page references
	external []string        // external URLs found
	fragRefs []fragRef
}

// checkPage reads, lints and link-scans one page. It runs on a worker
// goroutine: everything it touches is either private, immutable for
// the duration of the walk (Options, pageSet), or safe for concurrent
// use (the Linter, os.Stat). The page source lives in a pooled buffer
// that is released before returning — messages own their text and the
// link scan clones what it extracts.
func checkPage(root, page string, o *Options, pageSet map[string]bool) pageResult {
	res := pageResult{page: page}
	full := filepath.Join(root, filepath.FromSlash(page))
	buf := bufpool.Get()
	defer bufpool.Put(buf)
	if res.err = lint.ReadFile(full, buf); res.err != nil {
		return res
	}
	src := buf.Bytes()
	// Lint into the Recorder (sorted below, matching CheckString) so
	// per-rule suppression stats survive into the ordered merge.
	o.Linter.Check(context.TODO(), page, src, &res.Recorder)
	warn.SortByLine(res.Messages)
	var links []linkcheck.Link
	links, res.anchors = linkcheck.ScanBytes(src)

	for _, link := range links {
		if linkcheck.IsExternal(link.URL) {
			res.external = append(res.external, link.URL)
			continue
		}
		target := resolveLocal(page, link.URL)
		if _, frag := linkcheck.SplitFragment(link.URL); frag != "" {
			fragTarget := target
			if fragTarget == "" {
				fragTarget = page // fragment-only: same page
			}
			res.fragRefs = append(res.fragRefs, fragRef{page, fragTarget, frag, link.Line})
		}
		if target == "" {
			continue // fragment-only or empty reference
		}
		// Directory references resolve through index files.
		if resolved, ok := resolveIndex(root, target); ok {
			target = resolved
		}
		if pageSet[target] {
			if target != page {
				res.refs = append(res.refs, target)
			}
			continue
		}
		if !o.SkipLocalLinks && !existsLocal(root, target) {
			res.Messages = append(res.Messages, warn.Message{
				ID: "bad-link", Category: warn.Error,
				File: page, Line: link.Line,
				Text: "target for anchor \"" + link.URL + "\" not found",
			})
		}
	}
	return res
}

// resolveLocal resolves a relative link found in page (a root-relative
// slash path) to a root-relative slash path. It returns "" for
// fragment-only links.
func resolveLocal(page, url string) string {
	url, _ = linkcheck.SplitFragment(url)
	url = linkcheck.StripQuery(url)
	if url == "" {
		return ""
	}
	if strings.HasPrefix(url, "/") {
		return path.Clean(strings.TrimPrefix(url, "/"))
	}
	return path.Clean(path.Join(path.Dir(page), url))
}

// indexNames are the file names accepted as directory indexes, in the
// order a directory reference tries them.
var indexNames = [...]string{"index.html", "index.htm"}

// resolveIndex maps a directory reference to its index file.
func resolveIndex(root, target string) (string, bool) {
	full := filepath.Join(root, filepath.FromSlash(target))
	st, err := os.Stat(full)
	if err != nil || !st.IsDir() {
		return "", false
	}
	for _, idx := range indexNames {
		cand := path.Join(target, idx)
		if _, err := os.Stat(filepath.Join(root, filepath.FromSlash(cand))); err == nil {
			return cand, true
		}
	}
	return "", false
}

// existsLocal reports whether a root-relative target exists on disk.
func existsLocal(root, target string) bool {
	_, err := os.Stat(filepath.Join(root, filepath.FromSlash(target)))
	return err == nil
}

func hasIndex(files []string) bool {
	for _, f := range files {
		if isIndexName(f) {
			return true
		}
	}
	return false
}

func isIndexName(name string) bool {
	for _, idx := range indexNames {
		if strings.EqualFold(name, idx) {
			return true
		}
	}
	return false
}
