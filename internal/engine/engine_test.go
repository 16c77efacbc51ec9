package engine

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"weblint/internal/corpus"
	"weblint/internal/fetch"
	"weblint/internal/lint"
	"weblint/internal/plugin"
	"weblint/internal/warn"
)

// adversarialWorkerCounts are the pool sizes every determinism test
// runs under: degenerate (1), small (2), and far more workers than
// jobs or cores (64), which maximises scheduling reorder pressure.
var adversarialWorkerCounts = []int{1, 2, 64}

// genDocs builds an in-memory corpus with deliberately uneven document
// sizes, so fast documents constantly finish ahead of slow ones.
func genDocs(n int) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		size := 512 << (i % 6) // 512 B .. 16 KB
		docs[i] = []byte(corpus.GenerateSized(int64(i), size, corpus.ErrorRates{
			Overlap: 0.2, DropClose: 0.2,
		}))
	}
	return docs
}

// TestRunDeterministicOrder checks the engine's core contract: results
// come back in input order with the same messages a sequential run
// produces, for any worker count.
func TestRunDeterministicOrder(t *testing.T) {
	docs := genDocs(120)
	l := lint.MustNew(lint.Options{})

	want := make([][]warn.Message, len(docs))
	for i, d := range docs {
		want[i] = l.CheckString(fmt.Sprintf("doc%d.html", i), string(d))
	}

	jobs := make([]Job, len(docs))
	for i, d := range docs {
		jobs[i] = Job{Name: fmt.Sprintf("doc%d.html", i), Src: d}
	}

	for _, workers := range adversarialWorkerCounts {
		t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
			eng := &Engine{Linter: l, Workers: workers}
			results := eng.RunAll(jobs)
			if len(results) != len(jobs) {
				t.Fatalf("got %d results, want %d", len(results), len(jobs))
			}
			for i, r := range results {
				if r.Index != i {
					t.Fatalf("result %d has Index %d", i, r.Index)
				}
				if r.Err != nil {
					t.Fatalf("result %d: unexpected error %v", i, r.Err)
				}
				if r.Name != jobs[i].Name {
					t.Fatalf("result %d: Name = %q, want %q", i, r.Name, jobs[i].Name)
				}
				if !reflect.DeepEqual(r.Messages, want[i]) {
					t.Fatalf("result %d: messages differ from sequential run", i)
				}
			}
		})
	}
}

// TestErrorPropagation plants unreadable files mid-batch: their
// results carry the error, every other job still checks, and the pool
// drains to completion rather than wedging.
func TestErrorPropagation(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.html")
	if err := os.WriteFile(good, []byte("<html><head><title>t</title></head><body>hi</body></html>"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.html")

	var jobs []Job
	for i := 0; i < 30; i++ {
		if i%3 == 1 {
			jobs = append(jobs, Job{Path: missing})
		} else {
			jobs = append(jobs, Job{Path: good})
		}
	}
	jobs = append(jobs, Job{}) // no source at all

	for _, workers := range adversarialWorkerCounts {
		eng := &Engine{Workers: workers}
		results := eng.RunAll(jobs)
		if len(results) != len(jobs) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(results), len(jobs))
		}
		for i, r := range results {
			switch {
			case i == len(jobs)-1:
				if r.Err == nil || !strings.Contains(r.Err.Error(), "no source") {
					t.Fatalf("empty job: Err = %v", r.Err)
				}
			case i%3 == 1:
				if r.Err == nil {
					t.Fatalf("workers=%d: job %d should have failed", workers, i)
				}
			default:
				if r.Err != nil {
					t.Fatalf("workers=%d: job %d failed: %v", workers, i, r.Err)
				}
				if len(r.Messages) == 0 {
					t.Fatalf("workers=%d: job %d produced no messages", workers, i)
				}
			}
		}
	}
}

// panicChecker is a content plugin that panics, standing in for a
// poisoned document or a buggy plugin.
type panicChecker struct{}

func (panicChecker) Name() string       { return "panic" }
func (panicChecker) Elements() []string { return []string{"style"} }
func (panicChecker) Check(string, int, plugin.Report) {
	panic("boom")
}

// TestPanicDoesNotWedgePool turns a worker panic into Result.Err; the
// rest of the batch still delivers in order.
func TestPanicDoesNotWedgePool(t *testing.T) {
	l := lint.MustNew(lint.Options{Plugins: []plugin.ContentChecker{panicChecker{}}})
	eng := &Engine{Linter: l, Workers: 4}
	jobs := []Job{
		{Name: "a.html", Src: []byte("<html><head><title>a</title></head><body>x</body></html>")},
		{Name: "b.html", Src: []byte("<html><head><style>p{}</style><title>b</title></head><body>x</body></html>")},
		{Name: "c.html", Src: []byte("<html><head><title>c</title></head><body>x</body></html>")},
	}
	results := eng.RunAll(jobs)
	if len(results) != 3 {
		t.Fatalf("got %d results", len(results))
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Fatalf("panicking job: Err = %v", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil {
			t.Fatalf("job %d: %v", i, results[i].Err)
		}
	}
}

// TestCancellation: returning false from emit stops dispatch — with
// a big batch, only a handful of jobs past the cancellation point may
// run, and Run still returns cleanly (no stranded dispatcher or
// workers).
func TestCancellation(t *testing.T) {
	var ran atomic.Int32
	jobs := make([]int, 1000)
	emitted := 0
	OrderedSlice(2, 4, jobs, func(i, _ int) int {
		ran.Add(1)
		return i
	}, func(i, v int) bool {
		if v != i {
			t.Fatalf("result %d emitted at index %d", v, i)
		}
		emitted++
		return emitted < 3 // cancel after the third result
	})
	if emitted != 3 {
		t.Fatalf("emitted %d results after cancel", emitted)
	}
	// 3 emitted + at most window+workers-ish in flight; nowhere near
	// the full batch.
	if n := ran.Load(); n > 20 {
		t.Fatalf("%d jobs ran after cancellation", n)
	}
}

// TestEngineRunCancel: the same contract through Engine.Run with file
// jobs — an error can stop the batch without wedging the pool.
func TestEngineRunCancel(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.html")
	if err := os.WriteFile(good, []byte("<html><head><title>t</title></head><body>hi</body></html>"), 0o644); err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 200)
	for i := range jobs {
		jobs[i] = Job{Path: good}
	}
	jobs[5] = Job{Path: filepath.Join(dir, "missing.html")}

	eng := &Engine{Workers: 8}
	var firstErr error
	delivered := 0
	eng.Run(jobs, func(r Result) bool {
		if r.Err != nil {
			firstErr = r.Err
			return false
		}
		delivered++
		return true
	})
	if firstErr == nil {
		t.Fatal("error result never delivered")
	}
	if delivered != 5 {
		t.Fatalf("delivered %d results before the error, want 5", delivered)
	}
}

// TestOrderedWindowBound checks the generic core respects its window:
// while the first job blocks, no more than window jobs may be
// dispatched, so a slow early document bounds how far a fast batch
// runs ahead (and therefore how much memory buffered results pin).
func TestOrderedWindowBound(t *testing.T) {
	const window = 4
	release := make(chan struct{})
	started := make(chan int, 64)
	jobs := make([]int, 20)
	go func() {
		// With job 0 wedged, at most window+1 jobs can start: the
		// collector holds job 0's cell while the order queue holds the
		// next window cells, and then the dispatcher blocks.
		for i := 0; i < window+1; i++ {
			<-started
		}
		time.Sleep(50 * time.Millisecond) // let an unbounded dispatcher overrun
		select {
		case i := <-started:
			t.Errorf("job %d started beyond the window while job 0 was blocked", i)
		default:
		}
		close(release)
	}()
	var got []int
	OrderedSlice(window, window, jobs, func(i, _ int) int {
		started <- i
		if i == 0 {
			<-release
		}
		return i * i
	}, func(_, v int) bool {
		got = append(got, v)
		return true
	})
	for i, v := range got {
		if v != i*i {
			t.Fatalf("got[%d] = %d", i, v)
		}
	}
	if len(got) != 20 {
		t.Fatalf("emitted %d results, want 20", len(got))
	}
}

// TestJobNameLabelsEverySource: Job.Name labels the messages of file
// and URL jobs too, not only Result.Name.
func TestJobNameLabelsEverySource(t *testing.T) {
	const page = "<HTML><BODY><IMG SRC=\"x.gif\"></BODY></HTML>"
	path := filepath.Join(t.TempDir(), "page.html")
	if err := os.WriteFile(path, []byte(page), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, page)
	}))
	defer srv.Close()

	jobs := []Job{
		{Name: "site/page.html", Path: path},
		{Name: "site/remote.html", URL: srv.URL + "/page.html"},
	}
	for _, r := range (&Engine{Workers: 2}).RunAll(jobs) {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Name, r.Err)
		}
		want := jobs[r.Index].Name
		if r.Name != want || len(r.Messages) == 0 {
			t.Fatalf("job %d: Name %q with %d messages, want %q with some", r.Index, r.Name, len(r.Messages), want)
		}
		for _, m := range r.Messages {
			if m.File != want {
				t.Errorf("job %d: message names %q, want %q", r.Index, m.File, want)
			}
		}
	}
}

// TestURLJobBodyCap: a URL job whose body is one byte over the fetch
// cap fails with fetch.ErrBodyTooLarge and records nothing; it is
// never linted as a whole or a truncated prefix.
func TestURLJobBodyCap(t *testing.T) {
	limit := int(fetch.New(fetch.Options{}).MaxBody())
	body := []byte("<HTML><BODY>" + strings.Repeat("<IMG SRC=\"x.gif\">\n", limit/20))
	body = append(body, bytes.Repeat([]byte{' '}, limit+1-len(body))...)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write(body)
	}))
	defer srv.Close()

	r := (&Engine{Workers: 1}).RunAll([]Job{{URL: srv.URL}})[0]
	if !errors.Is(r.Err, fetch.ErrBodyTooLarge) {
		t.Fatalf("Err = %v, want fetch.ErrBodyTooLarge", r.Err)
	}
	if len(r.Messages) != 0 {
		t.Fatalf("%d messages recorded for an over-cap body", len(r.Messages))
	}
}

// TestResultSrcIsTheLintedDocument: emit sees the bytes each job was
// checked against — a Src job's own, a Path or URL job's read buffer —
// and nil for a job that could not be read. RunAll clears Src, since
// a read buffer is recycled once emit returns.
func TestResultSrcIsTheLintedDocument(t *testing.T) {
	const page = "<HTML><BODY><IMG SRC=\"x.gif\"></BODY></HTML>"
	dir := t.TempDir()
	path := filepath.Join(dir, "page.html")
	if err := os.WriteFile(path, []byte(page), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, page)
	}))
	defer srv.Close()

	jobs := []Job{{Src: []byte(page)}, {Path: path}, {URL: srv.URL}, {Path: filepath.Join(dir, "missing.html")}}
	for _, workers := range adversarialWorkerCounts {
		eng := &Engine{Workers: workers}
		eng.Run(jobs, func(r Result) bool {
			if r.Err != nil {
				if r.Src != nil {
					t.Errorf("workers=%d: job %d failed (%v) but carries %d bytes", workers, r.Index, r.Err, len(r.Src))
				}
			} else if string(r.Src) != page {
				t.Errorf("workers=%d: job %d Src = %q, want the page", workers, r.Index, r.Src)
			}
			return true
		})
		for _, r := range eng.RunAll(jobs) {
			if r.Src != nil {
				t.Errorf("workers=%d: RunAll result %d keeps Src", workers, r.Index)
			}
		}
	}
}
