package weblint

// The benchmark harness. Benchmark names follow the experiment numbers
// of cmd/weblint-bench, which prints the paper-vs-measured rows; the
// paper has no numbered tables or figures, so the experiments cover
// every quantified or exemplified claim in its text. Throughput and
// hot-path scaling are timed only here: BenchmarkE7Throughput,
// BenchmarkE7RawText, BenchmarkE9GatewayParallel and BenchmarkE10Batch.
//
// Run everything with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"weblint/internal/config"
	"weblint/internal/core"
	"weblint/internal/corpus"
	"weblint/internal/engine"
	"weblint/internal/gateway"
	"weblint/internal/htmltoken"
	"weblint/internal/lint"
	"weblint/internal/render"
	"weblint/internal/robot"
	"weblint/internal/sitewalk"
	"weblint/internal/validator"
	"weblint/internal/warn"
)

// BenchmarkE1Section42Example checks the paper's Section 4.2 page —
// the tool's reference workload.
func BenchmarkE1Section42Example(b *testing.B) {
	l := lint.MustNew(lint.Options{})
	b.SetBytes(int64(len(section42)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := len(l.CheckString("test.html", section42)); got != 7 {
			b.Fatalf("got %d messages, want 7", got)
		}
	}
}

// BenchmarkE2RegistryLookup measures message registry operations (the
// enable/disable machinery every check goes through).
func BenchmarkE2RegistryLookup(b *testing.B) {
	set := warn.NewSet()
	ids := warn.IDs()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		if warn.Lookup(id) == nil {
			b.Fatal("lost definition")
		}
		set.Enabled(id)
	}
}

// BenchmarkE3Formatters measures the output formatters over the
// Section 4.2 message set.
func BenchmarkE3Formatters(b *testing.B) {
	msgs := CheckString("test.html", section42)
	formatters := map[string]Formatter{
		"lint":    LintStyle,
		"short":   ShortStyle,
		"terse":   TerseStyle,
		"verbose": VerboseStyle,
	}
	for name, f := range formatters {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range msgs {
					_ = f.Format(m)
				}
			}
		})
	}
}

// BenchmarkE3SARIF measures the SARIF renderer over the findings of
// the E13 error-dense document, recorded once. Each iteration replays
// them into a fresh renderer, with the timer stopped, and times Close,
// which encodes the whole log: its ns/finding is the renderer's serial
// tail per finding, and its allocs/op must not grow with the findings.
func BenchmarkE3SARIF(b *testing.B) {
	var rec warn.Recorder
	l := lint.MustNew(lint.Options{})
	l.CheckStringTo("dense.html", corpus.GenerateSized(7, 1<<20, corpus.Uniform(0.25)), &rec)
	if len(rec.Messages) == 0 {
		b.Fatal("error-dense corpus produced no messages")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r := render.NewSARIF(io.Discard)
		rec.Replay(r)
		b.StartTimer()
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rec.Messages)), "ns/finding")
}

// BenchmarkE4ConfigLoad measures configuration parsing and the
// three-layer application of Section 4.4.
func BenchmarkE4ConfigLoad(b *testing.B) {
	site := "disable img-alt here-anchor\nset title-length 40\nextension netscape\n"
	user := "enable here-anchor\nset title-length 80\nset tag-case upper\n"
	cli := "disable style\n"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := config.NewSettings()
		for _, layer := range []string{site, user, cli} {
			cfg, err := config.Parse(strings.NewReader(layer), "layer.rc")
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Apply(cfg); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE5CascadeHeuristics compares checking with the cascade
// suppression heuristics on and ablated, on the same defective corpus
// (Section 5.1's design goal).
func BenchmarkE5CascadeHeuristics(b *testing.B) {
	src := corpus.Generate(corpus.Config{
		Seed: 42, Sections: 16,
		Errors: corpus.ErrorRates{Overlap: 0.4, DropClose: 0.3},
	})
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"heuristics-on", false}, {"heuristics-off", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			total := 0
			for i := 0; i < b.N; i++ {
				em := warn.NewEmitter(nil)
				core.Check(src, em, core.Options{
					Filename:                  "g.html",
					DisableCascadeSuppression: mode.disable,
					DisableImpliedClose:       mode.disable,
				})
				total += len(em.Messages())
			}
			b.ReportMetric(float64(total)/float64(b.N), "messages/doc")
		})
	}
}

// BenchmarkE6StrictValidator compares weblint's heuristic checking
// against the DTD-driven strict validator on the same documents (the
// Sections 2-3 contrast).
func BenchmarkE6StrictValidator(b *testing.B) {
	src := corpus.Generate(corpus.Config{
		Seed: 7, Sections: 16,
		Errors: corpus.ErrorRates{Misspell: 0.3, Overlap: 0.3, DropClose: 0.2},
	})
	b.Run("weblint", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		total := 0
		for i := 0; i < b.N; i++ {
			em := warn.NewEmitter(nil)
			core.Check(src, em, core.Options{Filename: "g.html"})
			total += len(em.Messages())
		}
		b.ReportMetric(float64(total)/float64(b.N), "messages/doc")
	})
	b.Run("strict", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		v := validator.New(nil)
		total := 0
		for i := 0; i < b.N; i++ {
			total += len(v.Validate("g.html", src))
		}
		b.ReportMetric(float64(total)/float64(b.N), "messages/doc")
	})
}

// BenchmarkE7Throughput measures checking throughput across document
// sizes — the "easy to run from a batch script" scaling claim. Each
// size builds one linter, outside b.Run, whose closure runs once per
// b.N round, and every round warms it with one untimed check: the
// linter pools its checkers per P, and a round may start on a P whose
// pool is cold. Without that, a fresh checker's warm-up (thousands of
// allocations at 1 MiB) lands in some rounds' timed loops, and
// allocs/op depends on b.N.
func BenchmarkE7Throughput(b *testing.B) {
	for _, size := range []int{1 << 10, 16 << 10, 128 << 10, 1 << 20} {
		src := corpus.GenerateSized(99, size, corpus.ErrorRates{})
		l := lint.MustNew(lint.Options{})
		b.Run(fmt.Sprintf("size-%dKB", size/1024), func(b *testing.B) {
			l.CheckString("g.html", src)
			b.ResetTimer()
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.CheckString("g.html", src)
			}
		})
	}
}

// BenchmarkE7RawText measures raw-text-heavy checking across document
// sizes. With the allocation-free case-insensitive scan the cost is
// linear: MB/s holds roughly constant as the document grows. The seed
// implementation re-lower-cased everything after each SCRIPT block
// (quadratic total), so its MB/s fell in proportion to size. Its
// linters are built and warmed as BenchmarkE7Throughput's are.
func BenchmarkE7RawText(b *testing.B) {
	for _, blocks := range []int{4, 16, 64, 256} {
		src := corpus.GenerateRawText(blocks)
		l := lint.MustNew(lint.Options{})
		b.Run(fmt.Sprintf("blocks-%d", blocks), func(b *testing.B) {
			l.CheckString("raw.html", src)
			b.ResetTimer()
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.CheckString("raw.html", src)
			}
		})
	}
}

// BenchmarkE9GatewayParallel is the gateway-shaped concurrency
// benchmark: many goroutines checking documents through one shared
// Linter, the way the CGI gateway serves requests. It exercises the
// shared-spec, pooled-state hot path across cores.
func BenchmarkE9GatewayParallel(b *testing.B) {
	l := lint.MustNew(lint.Options{})
	b.SetBytes(int64(len(section42)))
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if got := len(l.CheckString("test.html", section42)); got != 7 {
				b.Errorf("got %d messages, want 7", got)
			}
		}
	})
}

// BenchmarkLinterNew measures linter construction. With the memoized
// shared specs this is O(1) — building a linter per request is cheap —
// where the seed rebuilt the whole HTML version table each time.
func BenchmarkLinterNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lint.MustNew(lint.Options{})
	}
}

// BenchmarkE7Tokenizer isolates the tokenizer substrate.
func BenchmarkE7Tokenizer(b *testing.B) {
	src := corpus.GenerateSized(99, 128<<10, corpus.ErrorRates{})
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		toks := htmltoken.Tokenize(src)
		if len(toks) == 0 {
			b.Fatal("no tokens")
		}
	}
}

// BenchmarkE7SpecVersions compares checking against HTML 4.0, HTML
// 3.2, and 4.0 with vendor extensions enabled (the version-module
// ablation).
func BenchmarkE7SpecVersions(b *testing.B) {
	src := corpus.GenerateSized(99, 64<<10, corpus.ErrorRates{})
	variants := map[string]func() *lint.Linter{
		"html40": func() *lint.Linter { return lint.MustNew(lint.Options{}) },
		"html32": func() *lint.Linter {
			s := config.NewSettings()
			s.HTMLVersion = "3.2"
			return lint.MustNew(lint.Options{Settings: s})
		},
		"html40+ext": func() *lint.Linter {
			s := config.NewSettings()
			s.Extensions = []string{"netscape", "microsoft"}
			return lint.MustNew(lint.Options{Settings: s})
		},
	}
	for name, mk := range variants {
		b.Run(name, func(b *testing.B) {
			l := mk()
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				l.CheckString("g.html", src)
			}
		})
	}
}

// BenchmarkE8SiteWalk measures the -R site recursion over a 30-page
// site with defects.
func BenchmarkE8SiteWalk(b *testing.B) {
	root := b.TempDir()
	pages := corpus.GenerateSite(corpus.SiteConfig{
		Seed: 5, Pages: 30, Orphans: 2, BrokenLinks: 3, Subdirs: 3,
	})
	for rel, content := range pages {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	l := lint.MustNew(lint.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := sitewalk.Walk(root, sitewalk.Options{Linter: l})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Pages) != 30 {
			b.Fatalf("pages = %d", len(rep.Pages))
		}
	}
}

// writeBenchSite materialises a generated site under a temp root and
// returns the root, the page paths in sorted order, and total bytes.
func writeBenchSite(b *testing.B, cfg corpus.SiteConfig) (root string, paths []string, bytes int64) {
	b.Helper()
	root = b.TempDir()
	pages := corpus.GenerateSite(cfg)
	for rel, content := range pages {
		full := filepath.Join(root, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(content), 0o644); err != nil {
			b.Fatal(err)
		}
		paths = append(paths, full)
		bytes += int64(len(content))
	}
	sort.Strings(paths)
	return root, paths, bytes
}

// BenchmarkE10Batch measures the batch engine over a generated corpus
// tree: whole-corpus MB/s is the number the ROADMAP's fleet workloads
// care about. Run with -cpu 1,2,4 to see scaling; the worker count
// follows GOMAXPROCS, and results are always in input order.
func BenchmarkE10Batch(b *testing.B) {
	_, paths, total := writeBenchSite(b, corpus.SiteConfig{
		Seed: 17, Pages: 64, Subdirs: 4,
		Errors: corpus.ErrorRates{Overlap: 0.2, DropClose: 0.2},
	})
	jobs := make([]engine.Job, len(paths))
	for i, p := range paths {
		jobs[i] = engine.Job{Path: p}
	}
	eng := engine.New(lint.MustNew(lint.Options{}))
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		eng.Run(jobs, func(r engine.Result) bool {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			n++
			return true
		})
		if n != len(jobs) {
			b.Fatalf("delivered %d results", n)
		}
	}
}

// BenchmarkE9RobotCrawl measures the poacher robot over a 25-page
// httptest site, linting every page as it goes.
func BenchmarkE9RobotCrawl(b *testing.B) {
	pages := corpus.GenerateSite(corpus.SiteConfig{Seed: 11, Pages: 25, Subdirs: 2})
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		path := strings.TrimPrefix(r.URL.Path, "/")
		if path == "" {
			path = "index.html"
		}
		body, ok := pages[path]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/html")
		fmt.Fprint(w, body)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	l := lint.MustNew(lint.Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := robot.NewRobot()
		r.Prefetch = 4
		fetched, err := r.Crawl(srv.URL+"/", func(p robot.Page) {
			if p.Status == http.StatusOK {
				l.CheckString(p.URL, p.Body)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		if fetched != 25 {
			b.Fatalf("fetched = %d", fetched)
		}
	}
}

// BenchmarkE8SiteWalkParallel is E8 with the parallel per-page phase:
// same 30-page site, Workers following GOMAXPROCS (run with
// -cpu 1,2,4). The Report is identical to the sequential walk's.
func BenchmarkE8SiteWalkParallel(b *testing.B) {
	root, _, total := writeBenchSite(b, corpus.SiteConfig{
		Seed: 5, Pages: 30, Orphans: 2, BrokenLinks: 3, Subdirs: 3,
	})
	l := lint.MustNew(lint.Options{})
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := sitewalk.Walk(root, sitewalk.Options{Linter: l})
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Pages) != 30 {
			b.Fatalf("pages = %d", len(rep.Pages))
		}
	}
}

// BenchmarkE7CheckFile measures a warm whole-file check. With the
// pooled read buffer (lint.ReadFile) and a zero-copy view of it, a
// warm 1 MB CheckFile no longer allocates for the document at all; the
// seed paid an os.ReadFile allocation plus a full string(data) copy —
// two megabytes of garbage per check at this size.
func BenchmarkE7CheckFile(b *testing.B) {
	for _, size := range []int{16 << 10, 1 << 20} {
		src := corpus.GenerateSized(99, size, corpus.ErrorRates{})
		dir := b.TempDir()
		path := filepath.Join(dir, "doc.html")
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("size-%dKB", size/1024), func(b *testing.B) {
			l := lint.MustNew(lint.Options{})
			b.SetBytes(int64(size))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := l.CheckFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9Gateway measures a full gateway round trip (form post to
// rendered report).
func BenchmarkE9Gateway(b *testing.B) {
	h := gateway.NewHandler(lint.MustNew(lint.Options{}))
	srv := httptest.NewServer(h)
	defer srv.Close()

	form := url.Values{"html": {section42}}.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		resp, err := http.Post(srv.URL, "application/x-www-form-urlencoded", strings.NewReader(form))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		_ = resp.Body.Close()
	}
}

// BenchmarkE12Streaming measures the streaming seam on a large
// multi-finding document: CheckStringTo with a counting sink delivers
// every message incrementally without materialising the slice, so the
// only per-message cost left is the message text itself. The slice
// sub-benchmark is the same document through the collect-and-sort
// API, for comparison.
func BenchmarkE12Streaming(b *testing.B) {
	var doc strings.Builder
	doc.WriteString("<HTML><HEAD><TITLE>t</TITLE></HEAD><BODY>\n")
	for i := 0; i < 20000; i++ {
		doc.WriteString("<IMG SRC=\"x.gif\">\n") // img-alt + img-size per line
	}
	doc.WriteString("</BODY></HTML>\n")
	src := doc.String()

	l := lint.MustNew(lint.Options{})
	const wantMin = 20000 // one img-alt per generated line

	b.Run("sink", func(b *testing.B) {
		var count int
		sink := warn.SinkFunc(func(warn.Message) bool { count++; return true })
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			count = 0
			l.CheckStringTo("big.html", src, sink)
			if count < wantMin {
				b.Fatalf("streamed %d messages", count)
			}
		}
	})
	b.Run("slice", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := len(l.CheckString("big.html", src)); got < wantMin {
				b.Fatalf("collected %d messages", got)
			}
		}
	})
}

// tokenizerCorpus memoizes the E13 corpus: a deterministic ~8 MB mix
// of clean markup, error-injected markup, and raw-text-heavy pages,
// generated once per process so benchmark iterations measure only
// tokenization.
var tokenizerCorpus struct {
	once  sync.Once
	docs  []string
	total int64
}

func tokenizerCorpusDocs() ([]string, int64) {
	tokenizerCorpus.once.Do(func() {
		var docs []string
		for seed := int64(1); seed <= 12; seed++ {
			docs = append(docs, corpus.GenerateSized(seed, 384<<10, corpus.ErrorRates{}))
			docs = append(docs, corpus.GenerateSized(seed+100, 192<<10, corpus.Uniform(0.1)))
		}
		docs = append(docs, corpus.GenerateRawText(1024))
		var total int64
		for _, d := range docs {
			total += int64(len(d))
		}
		tokenizerCorpus.docs, tokenizerCorpus.total = docs, total
	})
	return tokenizerCorpus.docs, tokenizerCorpus.total
}

// BenchmarkE13TokenizerCorpus is the whole-corpus tokenizer benchmark:
// one op is a full streaming pass over the mixed corpus (~8 MB) with a
// reused tokenizer, so the reported MB/s is
// corpus throughput, not single-document ns/op. Run at -cpu 1,4,N to
// see per-core and scaled throughput (each goroutine tokenizes the
// whole corpus independently; there is no shared state to contend on).
func BenchmarkE13TokenizerCorpus(b *testing.B) {
	docs, total := tokenizerCorpusDocs()
	b.SetBytes(total)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tz := htmltoken.New("")
		var tok htmltoken.Token
		for pb.Next() {
			for _, doc := range docs {
				tz.Reset(doc)
				n := 0
				for tz.NextInto(&tok) {
					n++
				}
				if n == 0 {
					b.Fatal("no tokens")
				}
			}
		}
	})
}

// BenchmarkE13ErrorDense is the scaling-fix sentinel: a 1 MiB
// error-rate-0.25 corpus document, the workload whose per-byte cost
// used to double with document size before the monotone line cursors
// and O(1) stack bookkeeping (see weblint-bench -e e13 for the full
// size curve). Pre-fix this ran ~49 ms/op at ~25 MB/s; post-fix
// ~23 ms/op at ~53 MB/s.
func BenchmarkE13ErrorDense(b *testing.B) {
	l := lint.MustNew(lint.Options{})
	src := corpus.GenerateSized(7, 1<<20, corpus.Uniform(0.25))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if msgs := l.CheckString("dense.html", src); len(msgs) == 0 {
			b.Fatal("error-dense corpus produced no messages")
		}
	}
}
