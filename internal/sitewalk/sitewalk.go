// Package sitewalk implements weblint's -R switch: recursing through
// all directories in the local filesystem so a set of pages or an
// entire site can be checked with one command. The switch also enables
// additional warnings, checking whether directories have index files,
// and reporting orphan pages (which are not referred to by any other
// page checked). Local relative links are verified against the
// filesystem.
//
// The per-page phase runs on a bounded worker pool — Options.Workers,
// default GOMAXPROCS. Each page goes through the engine's per-document
// step, engine.Engine.Lint (read into a pooled buffer, check, sort by
// line, contain a panic), and its links and anchors are extracted on
// the same worker. Results are merged in page order, so the Report is
// identical to a sequential walk regardless of scheduling. A page's
// buffer is released once its result has been merged: the walk's
// memory is bounded by the in-flight window, not by the size of the
// site.
package sitewalk

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"weblint/internal/engine"
	"weblint/internal/linkcheck"
	"weblint/internal/lint"
	"weblint/internal/warn"
)

// Options configures a site walk.
type Options struct {
	// Linter checks each page; nil means the engine's default Linter.
	Linter *lint.Linter
	// Workers is the number of parallel workers for the per-page
	// lint and link-scan phase; 0 means GOMAXPROCS, 1 forces a
	// sequential walk. The Report is identical for every value.
	Workers int
	// Page, when set, receives each page's result in walk order
	// instead of Report.Messages accumulating its messages: the
	// root-relative Name, the Src it was linted from (valid until Page
	// returns), and its findings — the lint messages sorted by line,
	// then its bad-link messages. Site-level messages (bad-fragment,
	// no-index-file, orphan-page) stay in Report.Messages. Returning
	// false cancels the walk: undispatched pages are never read, and
	// Walk returns the report built so far.
	Page func(engine.Result) bool
}

// Report is the outcome of walking a site.
type Report struct {
	// Pages are the HTML files checked, relative to the root,
	// sorted.
	Pages []string
	// Messages holds every message from every page (unless
	// Options.Page took them), then the site-level messages
	// (bad-fragment, no-index-file, orphan-page).
	Messages []warn.Message
	// External are the distinct external URLs found, sorted.
	External []string
	// Cancelled reports that Options.Page stopped the walk early by
	// returning false: the report covers only what ran before the
	// cancellation, and callers driving several walks into one output
	// should stop too.
	Cancelled bool
}

// Walk checks every HTML page under root.
func Walk(root string, o Options) (*Report, error) {
	eng := &engine.Engine{Linter: o.Linter}
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

	// Per-page phase: lint, extract links and anchors, and resolve
	// link targets, in parallel. Results are merged in page order, so
	// the link graph and the message stream come out exactly as a
	// sequential walk produces them.
	referenced := map[string]bool{}
	external := map[string]bool{}
	anchors := map[string]map[string]bool{} // page -> defined anchors
	var fragRefs []fragRef
	var walkErr error
	workers := o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	engine.OrderedSlice(workers, 0, pages,
		func(_ int, page string) pageResult {
			return checkPage(eng, root, page, pageSet)
		},
		func(_ int, res pageResult) bool {
			defer res.Release()
			if res.Err != nil {
				// Cancel the batch: in-flight pages finish and are
				// discarded, undispatched pages are never read.
				walkErr = res.Err
				return false
			}
			if o.Page == nil {
				rep.Messages = append(rep.Messages, res.Messages...)
			} else if !o.Page(res.Result) {
				rep.Cancelled = true
				return false
			}
			anchors[res.Name] = res.anchors
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
			rep.Messages = append(rep.Messages, warn.Message{
				ID: "bad-fragment", Category: warn.Warning,
				File: fr.page, Line: fr.line,
				Text: "anchor \"#" + fr.frag + "\" is not defined in " + fr.target,
			})
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
			rep.Messages = append(rep.Messages, warn.Message{
				ID: "no-index-file", Category: warn.Warning,
				File: display, Line: 1,
				Text: "directory " + display + " does not have an index file",
			})
		}
	}

	// Orphan pages: not referenced by any other page, and not a
	// directory index (indexes are reachable via their directory).
	for _, page := range pages {
		if referenced[page] || isIndexName(path.Base(page)) {
			continue
		}
		rep.Messages = append(rep.Messages, warn.Message{
			ID: "orphan-page", Category: warn.Warning,
			File: page, Line: 1,
			Text: "page " + page + " is not linked to by any other page checked",
		})
	}

	for u := range external {
		rep.External = append(rep.External, u)
	}
	sort.Strings(rep.External)
	return rep, nil
}

// fragRef records a link to a fragment anchor, validated after every
// page's anchors are known.
type fragRef struct {
	page, target, frag string
	line               int
}

// pageResult carries one page's engine result, whose Src stays held
// until the merge releases it, and what the merge needs from its
// links.
type pageResult struct {
	// Result holds the lint messages, then bad-link messages, and the
	// disabled-rule emission IDs in order.
	engine.Result
	anchors  map[string]bool // fragment anchors defined in the page
	refs     []string        // local pages this page references
	external []string        // external URLs found
	fragRefs []fragRef
}

// checkPage lints and link-scans one page. It runs on a worker
// goroutine: everything it touches is either private, immutable for
// the duration of the walk (pageSet), or safe for concurrent use (the
// Engine, os.Stat).
func checkPage(eng *engine.Engine, root, page string, pageSet map[string]bool) pageResult {
	res := pageResult{Result: eng.Lint(engine.Job{Name: page, Path: filepath.Join(root, filepath.FromSlash(page))})}
	if res.Err != nil {
		return res
	}
	var links []linkcheck.Link
	links, res.anchors = linkcheck.ScanBytes(res.Src)

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
		if !existsLocal(root, target) {
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
