// Package gateway implements the weblint gateway of the paper's
// Sections 4.5 and 5.3: a web-based interface for driving the Weblint
// module. Users provide HTML by entering a URL, pasting in the text,
// or through file upload; the warnings generated by weblint are
// embedded into the web page generated in response.
//
// The gateway renders warnings through an HTML formatter — the
// sub-classing mechanism of the paper's Section 5.6 ("the gateway
// script uses a subclass to provide warnings more appropriate to the
// web page context").
package gateway

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"html"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"weblint/internal/baseline"
	"weblint/internal/bufpool"
	"weblint/internal/bytestr"
	"weblint/internal/faultinject"
	"weblint/internal/fetch"
	"weblint/internal/fixit"
	"weblint/internal/lint"
	"weblint/internal/render"
	"weblint/internal/resultcache"
	"weblint/internal/serve"
	"weblint/internal/warn"
)

// HTMLFormatter renders a message as an HTML list item, with the
// message identifier and category as a styled annotation. It is the
// gateway's warn.Formatter subclass.
type HTMLFormatter struct{}

// Format renders m as an <li> entry.
func (HTMLFormatter) Format(m warn.Message) string {
	return `<li class="` + m.Category.String() + `">line ` + strconv.Itoa(m.Line) + ": " +
		html.EscapeString(m.Text) + ` <span class="id">[` + m.ID + `]</span></li>`
}

var _ warn.Formatter = HTMLFormatter{}

// Handler is the gateway's http.Handler. Construct with NewHandler
// and configure fields before serving; they must not change once
// requests are in flight.
type Handler struct {
	// Linter checks submitted documents.
	Linter *lint.Linter
	// Formatter renders each message; nil means HTMLFormatter.
	Formatter warn.Formatter
	// MaxUpload bounds pasted, uploaded or fetched documents, in bytes
	// (default 2 MiB). A document over the limit is refused with a
	// clear 413, never silently truncated.
	MaxUpload int64
	// AllowURLFetch enables the check-by-URL form field. Gateways
	// installed behind firewalls for intranet use may want it off.
	AllowURLFetch bool
	// Limiter, when non-nil, applies admission control to submissions:
	// a bounded number of concurrent lints with a deadline-bounded
	// wait queue, shedding excess load with 429 + Retry-After.
	Limiter *serve.Limiter
	// LintBudget bounds each submission's lint, fetch included
	// (0 = unlimited). An over-budget lint is cancelled through the
	// sink seam and answered with 504, in every format.
	LintBudget time.Duration
	// Fetcher retrieves check-by-URL submissions. Nil means a hardened
	// default: timeouts, a redirect cap, a body cap of MaxUpload, and
	// the private/loopback-address guard ON — a public gateway must
	// not fetch the operator's intranet on a visitor's behalf. Supply
	// a fetch.Client with AllowPrivate to loosen it.
	Fetcher *fetch.Client
	// Cache, when non-nil, stores each completed finding stream under
	// (document SHA-256, config fingerprint, name), so a repeat
	// submission replays it (X-Weblint-Cache: hit) instead of linting.
	// It is one LRU with no shards; the bases diff= requests edit live
	// in a second instance of the same type, which NewHandler builds
	// whatever Cache is. Nil (-cache-off) only stops storing results,
	// so a repeat lints again: responses still carry the content-hash
	// ETag and X-Weblint-Cache, If-None-Match still answers 304,
	// concurrent identical submissions still collapse into one lint
	// slot, and diff= requests still work.
	Cache *resultcache.Cache[*warn.Recorder]
	// Metrics, when non-nil, records request outcomes, cache traffic,
	// admission waits, lint durations and per-rule finding counts; Mux
	// then also serves /metrics. See NewMetrics.
	Metrics *Metrics

	fetchOnce      sync.Once
	defaultFetcher *fetch.Client
	flights        *resultcache.Group
	bases          *resultcache.Cache[base]
}

// uploadSlack is how much larger than MaxUpload the raw request body
// may be: form and multipart encodings wrap the document in framing
// overhead, and the limit is a promise about documents, not about
// transport bytes. The document-size check happens after decoding.
const uploadSlack = 64 << 10

// NewHandler returns a gateway handler with defaults.
func NewHandler(l *lint.Linter) *Handler {
	if l == nil {
		l = lint.MustNew(lint.Options{})
	}
	return &Handler{
		Linter:        l,
		AllowURLFetch: true,
		flights:       resultcache.NewGroup(),
		bases:         resultcache.NewLRU(defaultBaseCapacity, func(base) int { return 1 }),
	}
}

func (h *Handler) maxUpload() int64 {
	if h.MaxUpload > 0 {
		return h.MaxUpload
	}
	return 2 << 20
}

func (h *Handler) formatter() warn.Formatter {
	if h.Formatter != nil {
		return h.Formatter
	}
	return HTMLFormatter{}
}

func (h *Handler) fetcher() *fetch.Client {
	if h.Fetcher != nil {
		return h.Fetcher
	}
	h.fetchOnce.Do(func() {
		h.defaultFetcher = fetch.New(fetch.Options{MaxBody: h.maxUpload()})
	})
	return h.defaultFetcher
}

// Mux assembles the production handler stack: the health probe at
// /healthz (when health is non-nil), the Prometheus scrape endpoint at
// /metrics (when Metrics is set), and the gateway itself behind
// panic-recovery middleware, so one crashing check answers 500 for
// its own request while the process keeps serving. onPanic observes
// contained panics (nil logs them). The response-counting middleware
// wraps the recovery layer, so a contained panic's 500 is counted like
// any other outcome; it hands the recovery layer the serve.StatusWriter
// it records the status in, so each request is wrapped once.
func (h *Handler) Mux(health *serve.Health, onPanic func(v any)) http.Handler {
	mux := http.NewServeMux()
	if health != nil {
		mux.Handle("/healthz", health)
	}
	gw := serve.Recover(h, onPanic)
	if h.Metrics != nil {
		mux.Handle("/metrics", h.Metrics.Handler())
		gw = h.Metrics.CountResponses(gw)
	}
	mux.Handle("/", gw)
	return mux
}

// ServeHTTP implements http.Handler: GET renders the submission form,
// POST checks the submission and renders the report.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		h.renderForm(w, "")
	case http.MethodPost:
		h.handleSubmit(w, r)
	default:
		w.Header().Set("Allow", "GET, POST")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// handleSubmit runs weblint over whichever input the form supplied:
// url=, html= (pasted), upload= (multipart file), or diff= (edits
// against a retained base, see diff.go). Every input takes the one
// submission path, submit. Every document lives in a pooled buffer for
// the duration of the request and is checked zero-copy: a paste in the
// one its urlencoded form is decoded into (see form.go), an uploaded,
// fetched or diffed document in submit's.
func (h *Handler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, h.maxUpload()+uploadSlack)
	// A pasted document is a view of form until the request ends.
	form := bufpool.Get()
	defer bufpool.Put(form)
	if err := readForm(r, form); err != nil {
		h.inputError(r.Context(), w, fmt.Errorf("parsing form: %w", err))
		return
	}
	h.submit(w, r)
}

// submit serves a submission. The document is read and keyed before
// any lint slot is taken: a 304 against the content-hash ETag, or a
// cache hit, costs no admission at all. Otherwise the lint runs inside
// the singleflight group, so a burst of N identical submissions pays
// one slot in the Limiter and one lint — the leader's result is shared,
// and every response says which way it went in X-Weblint-Cache (hit,
// miss or coalesced). Without a Cache nothing is stored or looked up;
// everything else is the same.
//
// The check completes before rendering begins, so no format ever ships
// a partial result: saturation answers 429, an over-budget check 504,
// an oversize document 413, and none of them — nor a cancelled check —
// leaves a cache entry.
func (h *Handler) submit(w http.ResponseWriter, r *http.Request) {
	ctx := r.Context()
	if h.LintBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, h.LintBudget)
		defer cancel()
	}

	buf := bufpool.Get()
	defer bufpool.Put(buf)
	name, src, err := h.extractInput(ctx, r, buf)
	if err != nil {
		h.inputError(ctx, w, err)
		return
	}
	if len(bytes.TrimSpace(src)) == 0 {
		h.renderForm(w, "no HTML provided: enter a URL, paste HTML, or upload a file")
		return
	}
	format := r.FormValue("format")
	if format == "" {
		format = "html"
	}
	if !validFormat(format) {
		http.Error(w, "unknown format "+format+" (expected html, json, sarif, baseline or fixed)", http.StatusBadRequest)
		return
	}

	key := resultcache.KeyOf(h.Linter.ConfigFingerprint(), src).Named(name)
	etag := `"` + key.Hex() + `"`
	// Retain the document so later requests can diff against this
	// response's ETag instead of resending it (see diff.go). A known
	// key is only marked recently used: the text is copied once.
	if _, ok := h.bases.Get(key); !ok {
		h.bases.Put(key, base{name: name, text: string(src)})
	}

	// The ETag is a content address, so If-None-Match is decidable
	// from the request alone — no cache entry needed, no lint slot.
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		h.cacheHeaders(w, etag, "hit")
		w.WriteHeader(http.StatusNotModified)
		return
	}

	if h.Cache != nil {
		if rec, ok := h.Cache.Get(key); ok {
			h.serveResult(w, r, name, src, format, rec, etag, "hit")
			return
		}
	}

	rec, shared, err := h.flights.Do(ctx, key, func() (*warn.Recorder, error) {
		return h.check(ctx, name, src, key)
	})
	if err != nil {
		h.lintError(w, format, err)
		return
	}
	status := "miss"
	if shared {
		status = "coalesced"
	}
	h.serveResult(w, r, name, src, format, rec, etag, status)
}

// check runs one admission-controlled, budget-bounded lint and, once
// it has completed, counts its finding stream by rule (with Metrics)
// and stores it (with a Cache). It runs as a
// singleflight leader: any error — saturation, budget, fault — is
// returned, never cached, and the Group decides whether waiters share
// it (they do, except the leader's own cancellation).
func (h *Handler) check(ctx context.Context, name string, src []byte, key resultcache.Key) (*warn.Recorder, error) {
	if h.Limiter != nil {
		release, err := h.acquireSlot(ctx)
		if err != nil {
			if errors.Is(err, serve.ErrSaturated) {
				return nil, err
			}
			// The leader's client gave up while queued; surface its
			// context error so the Group promotes a waiter.
			return nil, ctx.Err()
		}
		defer release()
	}

	// Chaos seam: tests inject slow lints, lint failures and panics
	// here; in production this is one atomic load.
	if err := faultinject.FireCtx(ctx, "gateway.lint"); err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, &lintFault{err: err}
	}

	rec := &warn.Recorder{}
	start := time.Now()
	err := h.Linter.Check(ctx, name, src, rec)
	if h.Metrics != nil {
		h.Metrics.LintDuration.Observe(time.Since(start).Seconds())
	}
	if err != nil {
		// The budget cut the check: a partial stream must not be
		// rendered, cached or counted — it would pass as the
		// document's truth.
		return nil, err
	}
	if h.Metrics != nil {
		h.Metrics.countFindings(rec)
	}
	if h.Cache != nil {
		h.Cache.Put(key, rec)
	}
	return rec, nil
}

// lintFault wraps a non-cancellation lint failure (injected faults,
// for now) so lintError can distinguish it from context errors.
type lintFault struct{ err error }

func (f *lintFault) Error() string { return f.err.Error() }
func (f *lintFault) Unwrap() error { return f.err }

// acquireSlot takes one lint slot, recording the admission wait.
func (h *Handler) acquireSlot(ctx context.Context) (func(), error) {
	start := time.Now()
	release, err := h.Limiter.Acquire(ctx)
	if h.Metrics != nil {
		h.Metrics.AdmissionWait.Observe(time.Since(start).Seconds())
	}
	return release, err
}

// serveResult renders a completed finding stream — fresh from a lint,
// shared by a singleflight leader, or replayed from the cache — in the
// requested format, with the content-hash ETag and the X-Weblint-Cache
// disposition on every response. Cache traffic counters increment
// exactly when these headers ship, so the server-side
// hit/miss/coalesced counts reconcile one-to-one with what clients
// observe. rec may be shared with other requests and is only replayed.
func (h *Handler) serveResult(w http.ResponseWriter, r *http.Request, name string, src []byte, format string, rec *warn.Recorder, etag, status string) {
	h.cacheHeaders(w, etag, status)
	switch format {
	case "html":
		// The HTML report sorts by line; sort a private copy.
		msgs := slices.Clone(rec.Messages)
		warn.SortByLine(msgs)
		h.renderReport(w, name, bytestr.String(src), msgs)
	case "fixed":
		h.serveFixed(w, src, rec)
	case "baseline":
		h.serveBaseline(w, name, src, rec)
	default:
		h.serveMachine(w, r, name, src, format, rec)
	}
}

// cacheHeaders stamps the content-hash validator and the cache
// disposition, and counts the disposition.
func (h *Handler) cacheHeaders(w http.ResponseWriter, etag, status string) {
	w.Header().Set("ETag", etag)
	w.Header().Set("X-Weblint-Cache", status)
	if h.Metrics == nil {
		return
	}
	switch status {
	case "hit":
		h.Metrics.CacheHits.Inc()
	case "miss":
		h.Metrics.CacheMisses.Inc()
	case "coalesced":
		h.Metrics.CacheCoalesced.Inc()
	}
}

// lintError answers a failed lint: saturation as 429 + Retry-After, a
// blown budget as 504, an internal fault or a crashed shared check as
// 500. The caller's own cancellation gets no answer — nobody is
// listening.
func (h *Handler) lintError(w http.ResponseWriter, format string, err error) {
	var fault *lintFault
	switch {
	case errors.Is(err, serve.ErrSaturated):
		w.Header().Set("Retry-After", h.Limiter.RetryAfter())
		http.Error(w, "gateway is at capacity; retry shortly", http.StatusTooManyRequests)
	case errors.As(err, &fault):
		h.renderError(w, http.StatusInternalServerError, "lint failed: "+fault.err.Error())
	case errors.Is(err, context.DeadlineExceeded):
		if format != "html" {
			http.Error(w, "lint budget exceeded for this document", http.StatusGatewayTimeout)
			return
		}
		h.renderError(w, http.StatusGatewayTimeout, "lint budget exceeded for this document")
	case errors.Is(err, context.Canceled):
		// The client hung up; nobody is listening.
	default:
		// resultcache.ErrLeaderPanicked: the check this request waited
		// on crashed (its own request answered 500 through Recover).
		h.renderError(w, http.StatusInternalServerError, "lint failed: "+err.Error())
	}
}

// inputError classifies an extractInput failure: oversize documents
// as 413, a diff against an unknown base as 412, a blown fetch budget
// as 504, anything else as 400.
func (h *Handler) inputError(ctx context.Context, w http.ResponseWriter, err error) {
	var maxErr *http.MaxBytesError
	switch {
	case errors.Is(err, errUnknownBase):
		h.renderError(w, http.StatusPreconditionFailed, err.Error())
	case errors.As(err, &maxErr), errors.Is(err, errTooLarge):
		h.renderError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf(
			"document too large: this gateway checks documents up to %d bytes", h.maxUpload()))
	case errors.Is(err, fetch.ErrBodyTooLarge):
		h.renderError(w, http.StatusRequestEntityTooLarge, err.Error())
	case ctx.Err() != nil:
		h.renderError(w, http.StatusGatewayTimeout, "fetching the document exceeded the request budget")
	default:
		h.renderError(w, http.StatusBadRequest, err.Error())
	}
}

func validFormat(format string) bool {
	switch format {
	case "html", "json", "sarif", "baseline", "fixed":
		return true
	}
	return false
}

// etagMatches reports whether an If-None-Match header value matches
// etag, which is never empty. Weak validators (W/ prefixed) match too:
// the ETag is a content address, so weak and strong comparison
// coincide. The list is walked in place, so a submission without the
// header, or with it, allocates nothing here.
func etagMatches(header, etag string) bool {
	if header == "" {
		return false
	}
	for {
		c, rest, more := strings.Cut(header, ",")
		c = strings.TrimPrefix(strings.TrimSpace(c), "W/")
		if c == etag || c == "*" {
			return true
		}
		if !more {
			return false
		}
		header = rest
	}
}

// serveMachine answers a submission with machine-readable diagnostics:
// format=json writes one JSON object per finding as the stream replays;
// sarif is a single JSON document, so that renderer buffers the
// findings until Close (bounded in practice by MaxUpload on the
// submission).
//
// The request may carry a baseline= form field holding a previously
// recorded baseline document: findings it covers are filtered out, so
// the response contains only NEW findings — the gateway side of the CI
// contract that a baselined corpus fails only on regressions. The
// X-Weblint-New-Findings header carries the new finding count for
// sarif (which writes nothing until Close; json's trailing summary
// line counts the new findings anyway).
func (h *Handler) serveMachine(w http.ResponseWriter, r *http.Request, name string, src []byte, format string, rec *warn.Recorder) {
	var rd render.Renderer
	if format == "json" {
		w.Header().Set("Content-Type", "application/x-ndjson")
		rd = render.NewJSON(w)
	} else {
		rd = render.NewSARIF(w)
	}

	var sink warn.Sink = rd
	var filt *baseline.Filter
	if b := r.FormValue("baseline"); b != "" {
		base, err := baseline.Parse([]byte(b))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		filt = baseline.NewFilter(base, rd)
		filt.Document(name, bytestr.String(src))
		sink = filt
	}
	rec.Replay(sink)
	if format == "sarif" {
		// Headers must precede the body; SARIF only writes at Close.
		w.Header().Set("Content-Type", "application/sarif+json")
		if filt != nil {
			w.Header().Set("X-Weblint-New-Findings", strconv.Itoa(filt.New))
		}
	}
	_ = rd.Close()
}

// serveBaseline responds with a baseline document recording every
// finding — the artifact a later baseline= diff request consumes.
func (h *Handler) serveBaseline(w http.ResponseWriter, name string, src []byte, rec *warn.Recorder) {
	b := baseline.NewRecorder(nil)
	b.Document(name, bytestr.String(src))
	rec.Replay(b)
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(b.File().Encode())
}

// serveFixed applies the machine-applicable fixes from the finding
// stream and responds with the rewritten document. The applied and
// skipped fix counts ride in X-Weblint-Fixes-Applied and
// X-Weblint-Fixes-Skipped headers so clients can tell a clean
// document from an unfixable one without diffing.
func (h *Handler) serveFixed(w http.ResponseWriter, src []byte, rec *warn.Recorder) {
	var ap fixit.Applier
	rec.Replay(&ap)
	fixed, rep := ap.Apply(bytestr.String(src))
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	w.Header().Set("X-Weblint-Fixes-Applied", strconv.Itoa(rep.Applied))
	w.Header().Set("X-Weblint-Fixes-Skipped", strconv.Itoa(rep.Skipped))
	_, _ = io.WriteString(w, fixed)
}

// errTooLarge reports a pasted or uploaded document over the
// MaxUpload limit, detected after decoding — the limit is a promise
// about documents, so it is checked against the document, not the
// transport framing.
var errTooLarge = errors.New("document exceeds the upload limit")

// extractInput pulls the submitted document out of the request. The
// returned bytes are valid until buf is recycled — i.e. for the rest
// of the request — and must not be mutated. A document over MaxUpload
// fails with errTooLarge (paste, upload, diff) or fetch.ErrBodyTooLarge
// (check-by-URL); no input path ever lints a truncated prefix. A
// urlencoded form arrives parsed (see handleSubmit); a multipart one is
// streamed here and is never a diff. A diff= field wins over url= and
// html=.
func (h *Handler) extractInput(ctx context.Context, r *http.Request, buf *bytes.Buffer) (name string, src []byte, err error) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "multipart/form-data") {
		name, src, merr := h.readMultipart(r, buf)
		if merr != nil {
			return "", nil, merr
		}
		if src != nil {
			return name, src, nil
		}
	} else if r.PostForm.Get("diff") != "" {
		return h.readDiff(r.PostForm, buf)
	}

	if u := strings.TrimSpace(r.FormValue("url")); u != "" {
		if !h.AllowURLFetch {
			return "", nil, fmt.Errorf("checking by URL is disabled on this gateway")
		}
		if ferr := h.fetchURL(ctx, u, buf); ferr != nil {
			return "", nil, ferr
		}
		return u, buf.Bytes(), nil
	}
	// Pasted text is already decoded, in place, in the request's form
	// buffer (see handleSubmit); view it read-only rather than copying
	// it into this one.
	pasted := r.FormValue("html")
	if int64(len(pasted)) > h.maxUpload() {
		return "", nil, errTooLarge
	}
	return "pasted HTML", bytestr.Bytes(pasted), nil
}

// readMultipart streams a multipart submission: the upload part is
// read once directly into buf, and the small form fields (format,
// baseline, url, pasted html) are collected into r.Form so FormValue
// keeps working downstream. Streaming replaces ParseMultipartForm,
// which materialised every part in memory (or temp files past its
// budget) and then had FormFile copied again — for a cached gateway
// the document copy is most of a hit's cost, so the upload path pays
// for exactly one. A nil src return (no error) means no usable file
// part arrived; the caller falls through to the url/paste fields.
func (h *Handler) readMultipart(r *http.Request, buf *bytes.Buffer) (name string, src []byte, err error) {
	mr, err := r.MultipartReader()
	if err != nil {
		return "", nil, fmt.Errorf("parsing upload: %w", err)
	}
	form := r.URL.Query()
	var fileName string
	haveFile := false
	for {
		p, perr := mr.NextPart()
		if perr == io.EOF {
			break
		}
		if perr != nil {
			return "", nil, fmt.Errorf("parsing upload: %w", perr)
		}
		if p.FormName() == "upload" && p.FileName() != "" {
			if haveFile {
				p.Close() // like FormFile, the first upload part wins
				continue
			}
			// Read one byte past the limit: reaching it proves the
			// upload is over, where a limit-sized read would silently
			// lint a truncated prefix.
			_, rerr := buf.ReadFrom(io.LimitReader(p, h.maxUpload()+1))
			p.Close()
			if rerr != nil {
				return "", nil, rerr
			}
			if int64(buf.Len()) > h.maxUpload() {
				return "", nil, errTooLarge
			}
			fileName, haveFile = p.FileName(), true
			continue
		}
		v, rerr := io.ReadAll(io.LimitReader(p, h.maxUpload()+1))
		p.Close()
		if rerr != nil {
			return "", nil, rerr
		}
		if int64(len(v)) > h.maxUpload() {
			return "", nil, errTooLarge
		}
		form.Add(p.FormName(), string(v))
	}
	r.Form = form
	if haveFile && buf.Len() > 0 {
		return fileName, buf.Bytes(), nil
	}
	return "", nil, nil
}

// fetchURL retrieves a page for the check-by-URL form field into buf
// through the hardened fetch client: timeouts, a redirect cap, the
// MaxUpload body cap, and (by default) the private-address guard.
func (h *Handler) fetchURL(ctx context.Context, u string, buf *bytes.Buffer) error {
	if !strings.HasPrefix(u, "http://") && !strings.HasPrefix(u, "https://") {
		return fmt.Errorf("only http and https URLs can be checked")
	}
	res, err := h.fetcher().Fetch(ctx, u, buf)
	if err != nil {
		return err
	}
	if res.Status != http.StatusOK {
		return fmt.Errorf("retrieving %s: %d %s", u, res.Status, http.StatusText(res.Status))
	}
	return nil
}

func (h *Handler) renderForm(w http.ResponseWriter, errMsg string) {
	writePage(w, 0, &page{Error: errMsg, AllowURL: h.AllowURLFetch})
}

// renderError renders the form page carrying an error message, with an
// honest HTTP status so machine clients (and the siege load generator)
// can classify the outcome without scraping HTML.
func (h *Handler) renderError(w http.ResponseWriter, status int, errMsg string) {
	writePage(w, status, &page{Error: errMsg, AllowURL: h.AllowURLFetch})
}

func (h *Handler) renderReport(w http.ResponseWriter, name, src string, msgs []warn.Message) {
	f := h.formatter()
	var sum warn.Summary
	items := make([]string, len(msgs))
	for i, m := range msgs {
		sum.Add(m)
		items[i] = f.Format(m) // formatter output is trusted HTML
	}
	writePage(w, 0, &page{
		Checked: true, Name: name, Items: items, Summary: sum.String(),
		Source: src, AllowURL: h.AllowURLFetch,
	})
}
