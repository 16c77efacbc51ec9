// Command weblint checks the syntax and style of HTML pages.
//
// Usage:
//
//	weblint [options] file.html ...
//	weblint -u http://example.com/ ...
//	weblint -R site-directory
//	weblint - < page.html
//
// Diagnostics stream through a renderer sink selected with -format:
// the traditional human styles (lint, short, terse, verbose) or the
// machine-readable json (JSON Lines) and sarif (SARIF 2.1.0, the
// format GitHub code scanning ingests). Output is identical for any
// -j worker count.
//
// Exit status is policy-driven via -fail-on: 0 when no finding
// reaches the threshold, 1 when one does, and 2 on operational errors
// (usage mistakes, unreadable files, failed fetches) — operational
// errors are never conflated with findings.
//
// Baselines make the policy adoptable on a site with existing debt:
// -baseline-write records this run's findings (fingerprinted by rule,
// file, and enclosing-tag content — tolerant of line drift and tag
// reflow), -baseline reports and fails on only the findings a
// recorded baseline does not cover, and -baseline-update additionally
// rewrites the baseline afterwards with just the fingerprints this
// run still hit, so paid-down debt leaves the file in the same run
// that verifies no new debt arrived.
package main

import (
	"bufio"
	"cmp"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"weblint/internal/baseline"
	"weblint/internal/bytestr"
	"weblint/internal/config"
	"weblint/internal/engine"
	"weblint/internal/fixit"
	"weblint/internal/lint"
	"weblint/internal/render"
	"weblint/internal/sitewalk"
	"weblint/internal/warn"
)

const version = "weblint 2.0 (Go)"

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

type cli struct {
	short          bool
	terse          bool
	verbose        bool
	format         string
	failOn         string
	enable         string
	disable        string
	pedantic       bool
	exts           string
	htmlVer        string
	rcFile         string
	noRC           bool
	recurse        bool
	urlMode        bool
	list           bool
	version        bool
	jobs           int
	fix            bool
	fixDry         bool
	fixDiffTo      string
	baseline       string
	baselineWrite  string
	baselineUpdate string

	// doc hands a document's linted bytes to the active baseline layer
	// before its findings are written; nil without a baseline flag.
	doc func(name, src string)
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	var c cli
	fs := flag.NewFlagSet("weblint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.BoolVar(&c.short, "s", false, "short messages (\"line N: ...\"; same as -format short)")
	fs.BoolVar(&c.terse, "t", false, "terse machine-readable messages (file:line:id; same as -format terse)")
	fs.BoolVar(&c.verbose, "v", false, "verbose messages with explanations (same as -format verbose)")
	fs.StringVar(&c.format, "format", "", "output format: lint, short, terse, verbose, json, sarif")
	fs.StringVar(&c.failOn, "fail-on", "", "lowest severity that fails the run: error, warning, style (or any, the default), never")
	fs.StringVar(&c.enable, "e", "", "enable comma-separated warnings or categories")
	fs.StringVar(&c.disable, "d", "", "disable comma-separated warnings or categories")
	fs.BoolVar(&c.pedantic, "pedantic", false, "enable all warnings, even the esoteric ones")
	fs.StringVar(&c.exts, "x", "", "enable vendor extensions (netscape, microsoft)")
	fs.StringVar(&c.htmlVer, "V", "", "HTML version to check against (4.0 or 3.2)")
	fs.StringVar(&c.rcFile, "f", "", "configuration file to use instead of the user file")
	fs.BoolVar(&c.noRC, "norc", false, "do not read site or user configuration files")
	fs.BoolVar(&c.recurse, "R", false, "recurse into directories, checking a whole site")
	fs.BoolVar(&c.urlMode, "u", false, "arguments are URLs to retrieve and check")
	fs.BoolVar(&c.list, "l", false, "list supported warnings and their state, then exit")
	fs.BoolVar(&c.version, "version", false, "print version and exit")
	fs.IntVar(&c.jobs, "j", 0, "parallel lint workers (default: number of CPUs for files and -R, 1 for -u; output order is unaffected)")
	fs.BoolVar(&c.fix, "fix", false, "apply machine-applicable fixes in place, backing each file up as file.orig")
	fs.BoolVar(&c.fixDry, "fix-dry-run", false, "print the fixes as a unified diff to stdout without touching any file")
	fs.StringVar(&c.fixDiffTo, "fix-diff-to", "", "write each file's fixes as a unified-diff patch into this directory, touching no input file")
	fs.StringVar(&c.baseline, "baseline", "", "report (and fail on) only findings not recorded in this baseline file")
	fs.StringVar(&c.baselineWrite, "baseline-write", "", "record this run's findings to a baseline file; the run exits 0")
	fs.StringVar(&c.baselineUpdate, "baseline-update", "", "like -baseline, but also rewrite the file keeping only the fingerprints this run matched (prunes paid-down findings)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: weblint [options] file.html ... | -u URL ... | -R dir | -\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if c.version {
		fmt.Fprintln(stdout, version)
		return 0
	}

	settings, err := buildSettings(&c)
	if err != nil {
		fmt.Fprintf(stderr, "weblint: %v\n", err)
		return 2
	}

	linter, err := lint.New(lint.Options{Settings: settings, Pedantic: c.pedantic})
	if err != nil {
		fmt.Fprintf(stderr, "weblint: %v\n", err)
		return 2
	}

	style, err := pickStyle(&c, settings)
	if err != nil {
		fmt.Fprintf(stderr, "weblint: %v\n", err)
		return 2
	}
	threshold, err := pickFailOn(&c, settings)
	if err != nil {
		fmt.Fprintf(stderr, "weblint: %v\n", err)
		return 2
	}

	if c.list {
		listWarnings(stdout, linter.Set())
		return 0
	}

	files := fs.Args()
	if len(files) == 0 {
		fs.Usage()
		return 2
	}

	if c.fix || c.fixDry || c.fixDiffTo != "" {
		if err := validateFixMode(&c, files); err != nil {
			fmt.Fprintf(stderr, "weblint: %v\n", err)
			return 2
		}
		return runFix(&c, files, linter, stdout, stderr)
	}

	// The whole run streams through one pipeline: messages flow into a
	// severity-counting sink wrapping the selected renderer, and the
	// exit code falls out of the summary at the end. Baseline layers
	// wrap the chain: the filter forwards only findings the baseline
	// does not cover (so the renderer and the summary see just the new
	// ones), and the recorder — outermost, so it sees everything —
	// captures the full run for -baseline-write. The renderer writes
	// through a buffer: the line renderers write once per finding,
	// which unbuffered is one write(2) each.
	out := bufio.NewWriterSize(stdout, 64<<10)
	renderer, err := render.New(style, out)
	if err != nil {
		fmt.Fprintf(stderr, "weblint: %v\n", err)
		return 2
	}
	if moreThanOne(c.baseline != "", c.baselineWrite != "", c.baselineUpdate != "") {
		fmt.Fprintf(stderr, "weblint: -baseline, -baseline-write and -baseline-update are mutually exclusive\n")
		return 2
	}
	var sum warn.Summary
	sink := sum.Sink(renderer)
	var filter *baseline.Filter
	if path := cmp.Or(c.baseline, c.baselineUpdate); path != "" {
		base, err := baseline.Load(path)
		if err != nil {
			fmt.Fprintf(stderr, "weblint: %v\n", err)
			return 2
		}
		filter = baseline.NewFilter(base, sink)
		sink, c.doc = filter, filter.Document
	}
	var rec *baseline.Recorder
	if c.baselineWrite != "" {
		rec = baseline.NewRecorder(sink)
		sink, c.doc = rec, rec.Document
	}

	opErr := checkArgs(&c, files, linter, stdin, sink)
	// Close even after an operational error: a partial SARIF/JSON
	// document with the findings seen so far beats a truncated one.
	if cerr := renderer.Close(); cerr != nil && opErr == nil {
		opErr = cerr
	}
	if ferr := out.Flush(); ferr != nil && opErr == nil {
		opErr = ferr
	}
	if opErr != nil {
		fmt.Fprintf(stderr, "weblint: %v\n", opErr)
		return 2
	}
	writeSummaryFooter(style, stdout, &sum)
	if rec != nil {
		// Written only after a clean run: a partial record would mask
		// real findings on later diffs.
		if err := rec.File().WriteFile(c.baselineWrite); err != nil {
			fmt.Fprintf(stderr, "weblint: %v\n", err)
			return 2
		}
		// A recording run is for capturing state, not enforcing it.
		return 0
	}
	if c.baselineUpdate != "" {
		// Rewritten even when new findings fail the run below: the
		// pruned file reflects what this run's code still owes, and a
		// stale allowance for fixed findings must not linger until
		// someone remembers to re-record.
		if err := filter.Used().WriteFile(c.baselineUpdate); err != nil {
			fmt.Fprintf(stderr, "weblint: %v\n", err)
			return 2
		}
	}
	if sum.Failures(threshold) > 0 {
		return 1
	}
	return 0
}

// moreThanOne reports whether at least two of its arguments are true.
func moreThanOne(flags ...bool) bool {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n > 1
}

// writeSummaryFooter surfaces the run summary for the styles that
// carry one. The json renderer writes its own machine-readable
// summary line at Close (so the gateway and poacher streams get it
// too); verbose gets a human footer with the per-rule suppression
// stats when any emission was dropped by a disabled rule.
func writeSummaryFooter(style string, stdout io.Writer, sum *warn.Summary) {
	if style != "verbose" || sum.SuppressedTotal() == 0 {
		return
	}
	ids := make([]string, 0, len(sum.Suppressed))
	for id := range sum.Suppressed {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	fmt.Fprintf(stdout, "suppressed: %d emission(s) from disabled rules (", sum.SuppressedTotal())
	for i, id := range ids {
		if i > 0 {
			io.WriteString(stdout, ", ")
		}
		fmt.Fprintf(stdout, "%s x%d", id, sum.Suppressed[id])
	}
	io.WriteString(stdout, ")\n")
}

// validateFixMode rejects flag combinations the fix modes do not
// support: fixes rewrite local files, so every argument must be a
// plain file.
func validateFixMode(c *cli, files []string) error {
	modes := 0
	for _, on := range []bool{c.fix, c.fixDry, c.fixDiffTo != ""} {
		if on {
			modes++
		}
	}
	if modes > 1 {
		return fmt.Errorf("-fix, -fix-dry-run and -fix-diff-to are mutually exclusive")
	}
	if c.baseline != "" || c.baselineWrite != "" || c.baselineUpdate != "" {
		return fmt.Errorf("baselines apply to lint runs, not fix runs")
	}
	flagName := "-fix"
	switch {
	case c.fixDry:
		flagName = "-fix-dry-run"
	case c.fixDiffTo != "":
		flagName = "-fix-diff-to"
	}
	if c.urlMode {
		return fmt.Errorf("%s cannot be combined with -u (fixes rewrite local files)", flagName)
	}
	if c.recurse {
		return fmt.Errorf("%s cannot be combined with -R (pass the files explicitly)", flagName)
	}
	for _, arg := range files {
		if arg == "-" {
			return fmt.Errorf("%s cannot read from stdin (fixes rewrite local files)", flagName)
		}
		st, err := os.Stat(arg)
		if err != nil {
			return err
		}
		if st.IsDir() {
			return fmt.Errorf("%s is a directory (%s wants plain files)", arg, flagName)
		}
	}
	return nil
}

// runFix lints every file, applies the machine-applicable fixes, and
// either rewrites the files in place (-fix, with a .orig backup),
// prints a unified diff (-fix-dry-run) or writes one patch per changed
// file (-fix-diff-to). Files are checked on -j workers through the
// engine, which emits them in input order with the bytes it linted,
// so the output — and the order files are rewritten in — is identical
// for any worker count.
func runFix(c *cli, files []string, linter *lint.Linter, stdout, stderr io.Writer) int {
	// Deduplicate the argument list: producers read files on -j
	// workers while the ordered consumer rewrites them, so the same
	// path appearing twice could be re-read mid-rewrite and lint a
	// torn document. First mention wins. (Distinct paths aliasing one
	// file — symlinks, ../ routes — are out of scope, as for any
	// in-place rewriter.)
	seen := make(map[string]bool, len(files))
	var jobs []engine.Job
	for _, f := range files {
		key := filepath.Clean(f)
		if seen[key] {
			continue
		}
		seen[key] = true
		jobs = append(jobs, engine.Job{Path: f})
	}

	if c.fixDiffTo != "" {
		if err := os.MkdirAll(c.fixDiffTo, 0o755); err != nil {
			fmt.Fprintf(stderr, "weblint: %v\n", err)
			return 2
		}
	}
	// patchName's flattening is not injective ("site/page.html" and a
	// file literally named "site__page.html" collide); the consumer
	// runs in input order, so first-come numbering is deterministic
	// for any -j.
	patchNames := map[string]bool{}

	var opErr error
	eng := &engine.Engine{Linter: linter, Workers: c.jobs}
	eng.Run(jobs, func(r engine.Result) bool {
		if r.Err == nil {
			r.Err = fixOne(c, r, patchNames, stdout)
		}
		opErr = r.Err
		return opErr == nil
	})
	if opErr != nil {
		fmt.Fprintf(stderr, "weblint: %v\n", opErr)
		return 2
	}
	return 0
}

// fixOne applies the fixes of one linted file, in the mode c selects,
// to the bytes that were linted.
func fixOne(c *cli, r engine.Result, patchNames map[string]bool, stdout io.Writer) error {
	path, data := r.Name, r.Src
	orig := bytestr.String(data)
	fixed, rep := fixit.Apply(orig, r.Messages)
	if c.fixDry {
		if fixed != orig {
			io.WriteString(stdout, fixit.UnifiedDiff(path, path+" (fixed)", orig, fixed))
		}
		return nil
	}
	if c.fixDiffTo != "" {
		if fixed == orig {
			return nil
		}
		patch := fixit.UnifiedDiff(path, path+" (fixed)", orig, fixed)
		name := patchName(path)
		for i := 2; patchNames[name]; i++ {
			name = strings.TrimSuffix(patchName(path), ".patch") + fmt.Sprintf("~%d.patch", i)
		}
		patchNames[name] = true
		dest := filepath.Join(c.fixDiffTo, name)
		if err := os.WriteFile(dest, []byte(patch), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s: %s -> %s\n", path, rep.String(), dest)
		return nil
	}
	if !rep.Changed() {
		return nil
	}
	mode := fs.FileMode(0o644)
	if st, err := os.Stat(path); err == nil {
		mode = st.Mode().Perm()
	}
	if err := os.WriteFile(path+".orig", data, mode); err != nil {
		return err
	}
	if err := os.WriteFile(path, []byte(fixed), mode); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s: %s\n", path, rep.String())
	return nil
}

// patchName maps an input path to a flat, filesystem-safe patch file
// name: path separators become "__", so patches for a whole tree land
// side by side in the -fix-diff-to directory without recreating it.
func patchName(path string) string {
	s := filepath.ToSlash(filepath.Clean(path))
	s = strings.ReplaceAll(s, "/", "__")
	s = strings.ReplaceAll(s, ":", "_")
	return s + ".patch"
}

// checkArgs checks every argument in order, streaming all diagnostics
// into sink. Files, URLs and stdin run as batch-engine jobs on -j
// workers (default: all CPUs, or 1 with -u), streamed in input order,
// so the output is byte-identical to a sequential run; a directory
// walks its site once the jobs before it have been emitted. It returns
// the first operational error (unreadable file, failed fetch, usage
// mistake), at which point checking stops — later arguments are never
// linted, matching the tool's historical behaviour.
func checkArgs(c *cli, args []string, linter *lint.Linter, stdin io.Reader, sink warn.Sink) error {
	workers := c.jobs
	if workers <= 0 && c.urlMode {
		// URL batches stay sequential unless -j asks for more:
		// parallel GETs against someone's server must be opt-in,
		// the same politeness default the robot keeps.
		workers = 1
	}
	eng := &engine.Engine{Linter: linter, Workers: workers}
	var jobs []engine.Job
	var opErr error
	live := true
	// emit writes one linted document's findings, for a file, URL or
	// stdin job and for a walked page alike. The baseline layer gets
	// the bytes that were linted first: it never looks a document up
	// by name. Src is valid while emit runs, and nothing reads the
	// binding after emit returns but the next document's findings,
	// which rebind it.
	emit := func(r engine.Result) bool {
		if r.Err != nil {
			// Job errors already name their document.
			opErr = r.Err
			return false
		}
		if c.doc != nil {
			c.doc(r.Name, bytestr.String(r.Src))
		}
		live = r.Replay(sink)
		return live
	}
	for _, arg := range args {
		job, isDir, err := argJob(c, arg, stdin)
		if err == nil && !isDir {
			jobs = append(jobs, job)
			continue
		}
		// An unusable argument or a directory ends the batch: the
		// arguments before it are checked first.
		eng.Run(jobs, emit)
		jobs = jobs[:0]
		if opErr != nil || !live {
			return opErr
		}
		if err != nil {
			return err
		}
		// The walk streams each page through emit as its turn in walk
		// order comes up; the site-level findings follow.
		rep, err := sitewalk.Walk(arg, sitewalk.Options{Linter: linter, Workers: c.jobs, Page: emit})
		if err != nil || rep.Cancelled || !writeSite(c, arg, rep.Messages, sink) {
			// A cancelled walk means the sink is dead (e.g. stdout
			// closed): checking further arguments would be wasted I/O.
			return err
		}
	}
	eng.Run(jobs, emit)
	return opErr
}

// writeSite writes a walk's site-level findings, reporting whether the
// sink took them all. They arrive after their pages' buffers are gone,
// so each is bound to the page it names, read again from the walk's
// root; a directory, which no-index-file names, reads as empty.
func writeSite(c *cli, root string, msgs []warn.Message, sink warn.Sink) bool {
	bound := ""
	for _, m := range msgs {
		if c.doc != nil && m.File != bound {
			bound = m.File
			src, _ := os.ReadFile(filepath.Join(root, filepath.FromSlash(m.File)))
			c.doc(m.File, bytestr.String(src))
		}
		if !sink.Write(m) {
			return false
		}
	}
	return true
}

// argJob turns one argument into an engine job: stdin ("-") is read
// into memory, a -u argument is a URL, anything else a file. isDir
// reports a directory for -R to walk instead.
func argJob(c *cli, arg string, stdin io.Reader) (job engine.Job, isDir bool, err error) {
	switch {
	case arg == "-":
		// ReadAll's result is never nil, so an empty stdin is an empty
		// document, not a job without a source.
		src, err := io.ReadAll(stdin)
		if err != nil {
			return job, false, fmt.Errorf("reading stdin: %w", err)
		}
		return engine.Job{Name: "-", Src: src}, false, nil
	case c.urlMode:
		return engine.Job{URL: arg}, false, nil
	}
	st, err := os.Stat(arg)
	if err != nil {
		return job, false, err
	}
	if st.IsDir() {
		if !c.recurse {
			return job, false, fmt.Errorf("%s is a directory (use -R to check a site)", arg)
		}
		return job, true, nil
	}
	return engine.Job{Path: arg}, false, nil
}

// buildSettings performs the configuration layering of the paper's
// Section 4.4: site file, then user file (or -f file), then
// command-line switches.
func buildSettings(c *cli) (*config.Settings, error) {
	var settings *config.Settings
	var err error
	if c.noRC {
		settings = config.NewSettings()
	} else if c.rcFile != "" {
		settings = config.NewSettings()
		cfg, ferr := config.ParseFile(c.rcFile)
		if ferr != nil {
			return nil, ferr
		}
		if err := settings.Apply(cfg); err != nil {
			return nil, err
		}
	} else {
		settings, err = config.LoadDefault()
		if err != nil {
			return nil, err
		}
	}

	for _, id := range splitList(c.enable) {
		if err := settings.Set.Enable(id); err != nil {
			return nil, err
		}
	}
	for _, id := range splitList(c.disable) {
		if err := settings.Set.Disable(id); err != nil {
			return nil, err
		}
	}
	settings.Extensions = append(settings.Extensions, splitList(c.exts)...)
	if c.htmlVer != "" {
		settings.HTMLVersion = c.htmlVer
	}
	return settings, nil
}

// pickStyle resolves the output format: -format wins, then the -s/-t/
// -v shorthands, then the configuration file's output-style, then the
// traditional lint style.
func pickStyle(c *cli, settings *config.Settings) (string, error) {
	if c.format != "" {
		if !render.Valid(c.format) {
			return "", fmt.Errorf("unknown output format %q (expected one of %s)",
				c.format, strings.Join(render.Styles(), ", "))
		}
		return c.format, nil
	}
	switch {
	case c.terse:
		return "terse", nil
	case c.short:
		return "short", nil
	case c.verbose:
		return "verbose", nil
	}
	if settings.OutputStyle != "" {
		return settings.OutputStyle, nil
	}
	return "lint", nil
}

// pickFailOn resolves the severity threshold: -fail-on wins, then the
// configuration file, then "any" (every finding fails — the
// historical behaviour).
func pickFailOn(c *cli, settings *config.Settings) (warn.FailOn, error) {
	name := c.failOn
	if name == "" {
		name = settings.FailOn
	}
	if name == "" {
		return warn.FailOnStyle, nil
	}
	threshold, ok := warn.ParseFailOn(name)
	if !ok {
		return 0, fmt.Errorf("unknown -fail-on threshold %q (expected error, warning, style, any or never)", name)
	}
	return threshold, nil
}

// listWarnings prints the message inventory with enabled state, like
// the paper's description of per-identifier configuration.
func listWarnings(w io.Writer, set *warn.Set) {
	ids := warn.IDs()
	sort.Strings(ids)
	for _, id := range ids {
		d := warn.Lookup(id)
		state := "disabled"
		if set.Enabled(id) {
			state = "enabled"
		}
		fmt.Fprintf(w, "%-22s %-8s %-8s %s\n", id, d.Category, state, d.Format)
	}
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' }) {
		if part != "" {
			out = append(out, part)
		}
	}
	return out
}
