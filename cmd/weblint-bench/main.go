// Command weblint-bench reproduces the paper's experiments, printing
// paper-vs-measured rows, and runs the benchmark guards CI keeps. The
// paper ("Weblint: Just Another Perl Hack", USENIX 1998) has no
// numbered tables or figures; experiments e1-e6, e8 and e9 cover
// every quantified or exemplified claim in its text. e13 (lint scaling
// curve) and e14 (incremental re-lint latency) write BENCH_*.json
// reports and fail on their guards. Throughput and hot-path scaling,
// tokenizer corpus throughput included, are timed by the Benchmark
// functions at the repository root.
//
// Usage:
//
//	weblint-bench          # run every experiment
//	weblint-bench -e e5    # run one experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"weblint/internal/config"
	"weblint/internal/core"
	"weblint/internal/corpus"
	"weblint/internal/lint"
	"weblint/internal/sitewalk"
	"weblint/internal/validator"
	"weblint/internal/warn"
)

// section42 is the paper's worked example, verbatim.
const section42 = `<HTML>
<HEAD>
<TITLE>example page
</HEAD>
<BODY BGCOLOR="fffff" TEXT=#00ff00>
<H1>My Example</H2>
Click <B><A HREF="a.html>here</B></A>
for more details.
</BODY>
</HTML>
`

// paperMessages are the seven outputs printed in Section 4.2 (with the
// paper's "#00ffoo" typo corrected to the value actually in the file).
var paperMessages = []string{
	"line 1: first element was not DOCTYPE specification",
	"line 4: no closing </TITLE> seen for <TITLE> on line 3",
	`line 5: value for attribute TEXT (#00ff00) of element BODY should be quoted (i.e. TEXT="#00ff00")`,
	"line 5: illegal value for BGCOLOR attribute of BODY (fffff)",
	"line 6: malformed heading - open tag is <H1>, but closing is </H2>",
	`line 7: odd number of quotes in element <A HREF="a.html>`,
	"line 7: </B> on line 7 seems to overlap <A>, opened on line 7.",
}

func main() {
	os.Exit(run())
}

// run holds main's body so deferred profile writers flush before the
// process exits with e13's curve-bend failure code.
func run() int {
	which := flag.String("e", "all", "experiment to run (e1..e14 or all)")
	flag.StringVar(&jsonPath, "json", "", "write e13/e14 results as JSON to this path")
	flag.Float64Var(&scalingRate, "scaling-rate", 0.25, "e13: injected error rate for the scaling corpus")
	flag.Float64Var(&scalingMaxRatio, "scaling-max-ratio", 1.30,
		"e13: fail when per-byte lint cost grows more than this across one 4x size step")
	flag.Float64Var(&incrMaxFraction, "incremental-max-fraction", 0.10,
		"e14: fail when a single-line edit on the largest document re-lints slower than this fraction of a full lint")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the selected experiments to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "weblint-bench:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "weblint-bench:", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "weblint-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "weblint-bench:", err)
			}
		}()
	}

	experiments := []struct {
		id   string
		name string
		run  func()
	}{
		{"e1", "Section 4.2 worked example", e1},
		{"e2", "message inventory (Section 4.3)", e2},
		{"e3", "output styles (Section 4.2)", e3},
		{"e4", "configuration layering (Section 4.4)", e4},
		{"e5", "cascade suppression ablation (Section 5.1)", e5},
		{"e6", "weblint vs strict SGML validation (Sections 2-3)", e6},
		{"e8", "-R site recursion (Section 4.5)", e8},
		{"e9", "robot traversal (Section 4.5)", e9},
		{"e13", "lint scaling curve on error-dense corpus (BENCH_scaling.json)", e13},
		{"e14", "incremental re-lint latency (BENCH_incremental.json)", e14},
	}

	ran := 0
	for _, ex := range experiments {
		if *which != "all" && !strings.EqualFold(*which, ex.id) {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", strings.ToUpper(ex.id), ex.name)
		ex.run()
		fmt.Println()
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "weblint-bench: unknown experiment %q\n", *which)
		return 2
	}
	if scalingFailed || incrementalFailed {
		return 1
	}
	return 0
}

func e1() {
	l := lint.MustNew(lint.Options{})
	msgs := l.CheckString("test.html", section42)
	fmt.Printf("paper reports %d messages; measured %d\n", len(paperMessages), len(msgs))
	match := 0
	for i, m := range msgs {
		got := warn.Short{}.Format(m)
		status := "DIFFERS"
		if i < len(paperMessages) && got == paperMessages[i] {
			status = "exact"
			match++
		}
		fmt.Printf("  [%s] %s\n", status, got)
	}
	fmt.Printf("verbatim matches: %d/%d\n", match, len(paperMessages))
}

func e2() {
	total := warn.Count()
	enabled := warn.DefaultEnabledCount()
	byCat := warn.CountByCategory()
	fmt.Printf("%-28s %8s %8s\n", "", "paper", "measured")
	fmt.Printf("%-28s %8d %8d\n", "output messages", 50, total)
	fmt.Printf("%-28s %8d %8d\n", "enabled by default", 42, enabled)
	fmt.Printf("%-28s %8d %8d\n", "categories", 3, len(byCat))
	fmt.Printf("  errors=%d warnings=%d style=%d\n",
		byCat[warn.Error], byCat[warn.Warning], byCat[warn.Style])
	fmt.Println("(this implementation is a weblint-2-generation rewrite; the larger")
	fmt.Println(" inventory preserves the paper's shape: most enabled, style mostly off)")
}

func e3() {
	msgs := lint.MustNew(lint.Options{}).CheckString("test.html", section42)
	m := msgs[0]
	fmt.Printf("default (lint) : %s\n", warn.Lint{}.Format(m))
	fmt.Printf("-s (short)     : %s\n", warn.Short{}.Format(m))
	fmt.Printf("-t (terse)     : %s\n", warn.Terse{}.Format(m))
	v := warn.Verbose{}.Format(m)
	fmt.Printf("-v (verbose)   : %s\n", strings.Split(v, "\n")[0]+" ...")
}

func e4() {
	run := func(label string, layers ...string) {
		s := settingsFrom(layers...)
		l := lint.MustNew(lint.Options{Settings: s})
		msgs := l.CheckString("test.html", section42)
		fmt.Printf("  %-26s -> %d messages\n", label, len(msgs))
	}
	fmt.Println("layering site < user < command line on the Section 4.2 page:")
	run("defaults")
	run("site: disable errors", "disable errors")
	run("site + user re-enable", "disable errors", "enable odd-quotes element-overlap")
	run("site + user + cli off", "disable errors", "enable odd-quotes", "disable all")
}

func e5() {
	var withH, withoutH, docs int
	for seed := int64(0); seed < 50; seed++ {
		src := corpus.Generate(corpus.Config{
			Seed: seed, Sections: 6,
			Errors: corpus.ErrorRates{Overlap: 0.4, DropClose: 0.3},
		})
		withH += countMessages(src, false)
		withoutH += countMessages(src, true)
		docs++
	}
	fmt.Printf("corpus: %d documents with overlap and dropped-close injection\n", docs)
	fmt.Printf("%-32s %10s\n", "", "messages")
	fmt.Printf("%-32s %10d (%.1f/doc)\n", "heuristics on (weblint)", withH, float64(withH)/float64(docs))
	fmt.Printf("%-32s %10d (%.1f/doc)\n", "heuristics ablated", withoutH, float64(withoutH)/float64(docs))
	fmt.Printf("cascade reduction: %.2fx fewer messages for the same defects\n",
		float64(withoutH)/float64(withH))
	fmt.Println("(paper: heuristics exist \"to minimise the number of warning cascades\")")
}

func e6() {
	var lintN, strictN, docs int
	v := validator.New(nil)
	for seed := int64(0); seed < 30; seed++ {
		src := corpus.Generate(corpus.Config{
			Seed: seed, Sections: 5,
			Errors: corpus.ErrorRates{Misspell: 0.4, Overlap: 0.4, DropClose: 0.3},
		})
		lintN += countMessages(src, false)
		strictN += len(v.Validate("g.html", src))
		docs++
	}
	fmt.Printf("corpus: %d defective documents\n", docs)
	fmt.Printf("%-32s %10.1f msgs/doc\n", "weblint (heuristic)", float64(lintN)/float64(docs))
	fmt.Printf("%-32s %10.1f msgs/doc\n", "strict SGML validator", float64(strictN)/float64(docs))
	fmt.Printf("message volume ratio: %.2fx\n", float64(strictN)/float64(lintN))
	src := corpus.Generate(corpus.Config{Seed: 3, Sections: 2,
		Errors: corpus.ErrorRates{Misspell: 1}})
	fmt.Println("wording contrast on the same defect:")
	em := warn.NewEmitter(nil)
	core.Check(src, em, core.Options{Filename: "g.html"})
	if ms := em.Messages(); len(ms) > 0 {
		fmt.Printf("  weblint: %s\n", ms[0].Text)
	}
	if ms := v.Validate("g.html", src); len(ms) > 0 {
		fmt.Printf("  strict : %s\n", ms[0].Text)
	}
}

func e8() {
	root, err := os.MkdirTemp("", "weblint-e8")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer os.RemoveAll(root)
	pages := corpus.GenerateSite(corpus.SiteConfig{
		Seed: 5, Pages: 30, Orphans: 2, BrokenLinks: 3, Subdirs: 3,
	})
	for rel, content := range pages {
		full := filepath.Join(root, filepath.FromSlash(rel))
		_ = os.MkdirAll(filepath.Dir(full), 0o755)
		_ = os.WriteFile(full, []byte(content), 0o644)
	}
	rep, err := sitewalk.Walk(root, sitewalk.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	counts := map[string]int{}
	for _, m := range rep.Messages {
		counts[m.ID]++
	}
	fmt.Printf("site: %d pages, planted 2 orphans, 3 broken targets, 2 index-less dirs\n", len(rep.Pages))
	fmt.Printf("%-20s %8s %8s\n", "check", "planted", "found")
	fmt.Printf("%-20s %8d %8d\n", "orphan-page", 2, counts["orphan-page"])
	fmt.Printf("%-20s %8d %8d\n", "no-index-file", 2, counts["no-index-file"])
	distinct := map[string]bool{}
	for _, m := range rep.Messages {
		if m.ID == "bad-link" {
			distinct[m.Text] = true
		}
	}
	fmt.Printf("%-20s %8d %8d (distinct targets)\n", "bad-link", 3, len(distinct))
}

func e9() {
	fmt.Println("robot experiment requires a live server; run the full version with:")
	fmt.Println("  go test -run TestE9Robot ./internal/robot/")
	fmt.Println("  go test -bench BenchmarkE9RobotCrawl .")
	fmt.Println("or crawl a real site with: poacher -max-pages 50 http://your-site/")
}

// jsonPath is where e13 and e14 write their reports (-json).
var jsonPath string

// e13 configuration and outcome, set from flags / read by run.
var (
	scalingRate     float64
	scalingMaxRatio float64
	scalingFailed   bool
)

// scalingResult is one size row of BENCH_scaling.json.
type scalingResult struct {
	Bytes    int     `json:"bytes"`
	NsPerOp  int64   `json:"ns_per_op"`
	UsPerKiB float64 `json:"us_per_kib"`
	MBPerSec float64 `json:"mb_per_s"`
	Messages int     `json:"messages"`
}

// scalingRatio is the per-byte cost growth across one size step.
type scalingRatio struct {
	FromBytes    int     `json:"from_bytes"`
	ToBytes      int     `json:"to_bytes"`
	PerByteRatio float64 `json:"per_byte_ratio"`
}

// scalingReport is the BENCH_scaling.json document.
type scalingReport struct {
	Benchmark  string          `json:"benchmark"`
	Date       string          `json:"date"`
	GoVersion  string          `json:"go_version"`
	ErrorRate  float64         `json:"error_rate"`
	Results    []scalingResult `json:"results"`
	Ratios     []scalingRatio  `json:"ratios"`
	MaxRatio   float64         `json:"max_ratio"`
	RatioLimit float64         `json:"ratio_limit"`
	Pass       bool            `json:"pass"`
}

// e13 is the scaling-regression guard: it lints the same error-dense
// corpus shape at 64 KiB / 256 KiB / 1 MiB / 4 MiB and computes the
// per-byte cost ratio across each 4x size step. A linear checker holds
// the ratio near 1.0; the pre-fix checker's per-finding rescans bent
// the curve to ~2.2x per step at error rate 0.25. The run FAILS (exit
// 1) when any step exceeds -scaling-max-ratio, so a reintroduced
// superlinear path cannot land quietly. -json writes BENCH_scaling.json.
func e13() {
	sizes := []int{64 << 10, 256 << 10, 1 << 20, 4 << 20}
	l := lint.MustNew(lint.Options{})
	report := scalingReport{
		Benchmark:  "lint-scaling-error-dense",
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		ErrorRate:  scalingRate,
		RatioLimit: scalingMaxRatio,
	}

	fmt.Printf("error rate %.2f, per-byte cost across 4x size steps (limit %.2fx/step)\n",
		scalingRate, scalingMaxRatio)
	fmt.Printf("%-10s %14s %12s %12s %10s\n", "size", "time/doc", "µs/KiB", "MB/s", "messages")
	for _, size := range sizes {
		src := corpus.GenerateSized(7, size, corpus.Uniform(scalingRate))
		msgs := len(l.CheckString("g.html", src))
		// Equal-bytes budget per row: every size lints ~32 MiB total,
		// so small-document rows average over many iterations.
		iters := (32 << 20) / len(src)
		if iters < 3 {
			iters = 3
		}
		// Warm the pools before timing.
		l.CheckString("g.html", src)
		start := time.Now()
		for i := 0; i < iters; i++ {
			l.CheckString("g.html", src)
		}
		per := time.Since(start) / time.Duration(iters)
		kib := float64(len(src)) / 1024
		report.Results = append(report.Results, scalingResult{
			Bytes:    len(src),
			NsPerOp:  per.Nanoseconds(),
			UsPerKiB: float64(per.Microseconds()) / kib,
			MBPerSec: float64(len(src)) / per.Seconds() / 1e6,
			Messages: msgs,
		})
		r := report.Results[len(report.Results)-1]
		fmt.Printf("%-10s %14s %12.2f %12.1f %10d\n",
			fmt.Sprintf("%d KiB", size>>10), per.Round(time.Microsecond), r.UsPerKiB, r.MBPerSec, msgs)
	}

	report.Pass = true
	for i := 1; i < len(report.Results); i++ {
		prev, cur := report.Results[i-1], report.Results[i]
		ratio := cur.UsPerKiB / prev.UsPerKiB
		report.Ratios = append(report.Ratios, scalingRatio{
			FromBytes: prev.Bytes, ToBytes: cur.Bytes, PerByteRatio: ratio,
		})
		if ratio > report.MaxRatio {
			report.MaxRatio = ratio
		}
		status := "ok"
		if ratio > scalingMaxRatio {
			report.Pass = false
			status = "CURVE BENT"
		}
		fmt.Printf("per-byte ratio %4d KiB -> %4d KiB: %.2fx  [%s]\n",
			prev.Bytes>>10, cur.Bytes>>10, ratio, status)
	}
	if !report.Pass {
		fmt.Printf("FAIL: per-byte lint cost grew more than %.2fx across a size step — superlinear path reintroduced\n",
			scalingMaxRatio)
		scalingFailed = true
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "weblint-bench:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "weblint-bench:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

// e14 configuration and outcome, set from flags / read by run.
var (
	incrMaxFraction   float64
	incrementalFailed bool
)

// incrementalResult is one (document size × edit kind) cell of
// BENCH_incremental.json.
type incrementalResult struct {
	DocBytes   int     `json:"doc_bytes"`
	Edit       string  `json:"edit"`
	EditBytes  int     `json:"edit_bytes"`
	FullLintNs int64   `json:"full_lint_ns"`
	P50Ns      int64   `json:"p50_ns"`
	P99Ns      int64   `json:"p99_ns"`
	Fraction   float64 `json:"p50_fraction_of_full"`
	Spliced    int     `json:"spliced"`
	FullTail   int     `json:"full_tail"`
}

// incrementalReport is the BENCH_incremental.json document.
type incrementalReport struct {
	Benchmark     string              `json:"benchmark"`
	Date          string              `json:"date"`
	GoVersion     string              `json:"go_version"`
	Results       []incrementalResult `json:"results"`
	GuardDocBytes int                 `json:"guard_doc_bytes"`
	GuardEdit     string              `json:"guard_edit"`
	GuardFraction float64             `json:"guard_fraction"`
	FractionLimit float64             `json:"fraction_limit"`
	Pass          bool                `json:"pass"`
}

// e14 is the incremental re-lint latency grid: edit size × document
// size, each cell timing an edit to its findings — lint.Session.Apply
// then Messages — for an edit/revert cycle at steady state and
// reporting p50/p99 against the document's full-lint time. Every cell
// cross-checks that the session's findings stay byte-identical to a
// from-scratch lint — a splice that drifted would make the latency
// numbers meaningless. The run FAILS (exit 1) when the single-line edit
// on the largest document re-lints slower than
// -incremental-max-fraction of a full lint, so a regression that
// silently degrades every edit to a full-tail re-lint cannot land.
// -json writes BENCH_incremental.json.
func e14() {
	l := lint.MustNew(lint.Options{})
	report := incrementalReport{
		Benchmark:     "incremental-relint-latency",
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		FractionLimit: incrMaxFraction,
		Pass:          true,
	}

	docSizes := []int{64 << 10, 256 << 10, 1 << 20}
	guardDoc := docSizes[len(docSizes)-1]
	const guardEdit = "replace-line"
	block := strings.Repeat("<p>inserted block paragraph with some text in it.</p>\n", 20)[:1024]

	fmt.Printf("edit/revert cycles per cell, p50 vs full lint (guard: %s on %d KiB ≤ %.2fx full)\n",
		guardEdit, guardDoc>>10, incrMaxFraction)
	fmt.Printf("%-10s %-14s %12s %12s %12s %10s\n",
		"doc", "edit", "full-lint", "p50", "p99", "of-full")
	for _, size := range docSizes {
		src := corpus.GenerateSized(7, size, corpus.Uniform(0.05))

		// Full-lint reference for this document.
		fullIters := (8 << 20) / len(src)
		if fullIters < 3 {
			fullIters = 3
		}
		l.CheckString("incr.html", src) // warm pools
		start := time.Now()
		for i := 0; i < fullIters; i++ {
			l.CheckString("incr.html", src)
		}
		full := time.Since(start) / time.Duration(fullIters)

		// Pick a line mid-document to edit: start of the line after the
		// first newline past the midpoint.
		ls := strings.IndexByte(src[len(src)/2:], '\n') + len(src)/2 + 1
		le := ls + strings.IndexByte(src[ls:], '\n')

		for _, kind := range []struct {
			name string
			fwd  lint.Edit
		}{
			{"insert-1b", lint.Edit{Start: ls, End: ls, Text: "x"}},
			{guardEdit, lint.Edit{Start: ls, End: le, Text: "<p>edited line &amp; replacement text</p>"}},
			{"insert-1kib", lint.Edit{Start: ls, End: ls, Text: block}},
		} {
			rev := lint.Edit{Start: kind.fwd.Start, End: kind.fwd.Start + len(kind.fwd.Text), Text: src[kind.fwd.Start:kind.fwd.End]}
			s := lint.NewSession(l, "incr.html", src)
			s.Apply([]lint.Edit{kind.fwd}) // warm: first apply builds nothing extra but faults in paths
			s.Apply([]lint.Edit{rev})

			cycles := 50
			if size <= 64<<10 {
				cycles = 200
			}
			samples := make([]time.Duration, 0, 2*cycles)
			for i := 0; i < cycles; i++ {
				t0 := time.Now()
				s.Apply([]lint.Edit{kind.fwd})
				s.Messages()
				samples = append(samples, time.Since(t0))
				t0 = time.Now()
				s.Apply([]lint.Edit{rev})
				s.Messages()
				samples = append(samples, time.Since(t0))
			}
			sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
			p50 := samples[len(samples)/2]
			p99 := samples[len(samples)*99/100]

			// Inline correctness cross-check: after all those cycles the
			// text is back to src, and the findings must match a
			// from-scratch lint byte-for-byte.
			if s.Text() != src {
				fmt.Fprintln(os.Stderr, "weblint-bench: e14 edit/revert did not restore the document")
				os.Exit(2)
			}
			gotMsgs, wantMsgs := s.Messages(), l.CheckString("incr.html", src)
			if len(gotMsgs) != len(wantMsgs) {
				fmt.Fprintf(os.Stderr, "weblint-bench: e14 incremental diverged: %d vs %d messages\n", len(gotMsgs), len(wantMsgs))
				os.Exit(2)
			}
			var lf warn.Lint
			for i := range gotMsgs {
				if lf.Format(gotMsgs[i]) != lf.Format(wantMsgs[i]) {
					fmt.Fprintf(os.Stderr, "weblint-bench: e14 incremental diverged at message %d\n", i)
					os.Exit(2)
				}
			}

			st := s.Stats()
			frac := float64(p50) / float64(full)
			report.Results = append(report.Results, incrementalResult{
				DocBytes: len(src), Edit: kind.name, EditBytes: len(kind.fwd.Text),
				FullLintNs: full.Nanoseconds(),
				P50Ns:      p50.Nanoseconds(), P99Ns: p99.Nanoseconds(),
				Fraction: frac, Spliced: st.Spliced, FullTail: st.FullTail,
			})
			fmt.Printf("%-10s %-14s %12s %12s %12s %9.3fx\n",
				fmt.Sprintf("%d KiB", size>>10), kind.name,
				full.Round(time.Microsecond), p50.Round(time.Microsecond),
				p99.Round(time.Microsecond), frac)

			if size == guardDoc && kind.name == guardEdit {
				report.GuardDocBytes = size
				report.GuardEdit = guardEdit
				report.GuardFraction = frac
				if frac > incrMaxFraction {
					report.Pass = false
					incrementalFailed = true
				}
			}
		}
	}

	if !report.Pass {
		fmt.Printf("FAIL: %s on %d KiB re-lints at %.3fx of a full lint (limit %.2fx) — incremental path degraded\n",
			report.GuardEdit, report.GuardDocBytes>>10, report.GuardFraction, incrMaxFraction)
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "weblint-bench:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "weblint-bench:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", jsonPath)
	}
}

func countMessages(src string, ablate bool) int {
	em := warn.NewEmitter(nil)
	core.Check(src, em, core.Options{
		Filename:                  "g.html",
		DisableCascadeSuppression: ablate,
		DisableImpliedClose:       ablate,
	})
	return len(em.Messages())
}

// settingsFrom builds layered settings from rc-syntax strings, one
// layer per argument, mirroring site/user/command-line stacking.
func settingsFrom(layers ...string) *config.Settings {
	s := config.NewSettings()
	for i, layer := range layers {
		cfg, err := config.Parse(strings.NewReader(layer), fmt.Sprintf("layer%d.rc", i))
		if err != nil {
			fmt.Fprintln(os.Stderr, "weblint-bench:", err)
			os.Exit(2)
		}
		if err := s.Apply(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "weblint-bench:", err)
			os.Exit(2)
		}
	}
	return s
}
