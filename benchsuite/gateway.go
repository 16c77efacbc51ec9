package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weblint/internal/fetch"
	"weblint/internal/gateway"
	"weblint/internal/lint"
	"weblint/internal/render"
	"weblint/internal/resultcache"
	"weblint/internal/serve"
	"weblint/internal/warn"
)

// The gateway workload is the web visitor: POSTs of pasted HTML against
// an in-process server wired exactly as cmd/weblint-gateway's defaults
// (result cache on, 2×GOMAXPROCS lint slots with a 2 s queue wait, a
// 10 s lint budget, metrics on). The client holds at most GOMAXPROCS
// connections, fewer than the lint slots, so requests never wait for
// admission and are never refused: under load they queue for a
// connection in the client, and that wait is part of their latency.
//
// Each stretch of measurement first measures latency with an open loop
// at two rates frozen as shares of the capacity the closed loop
// measured on the commit that introduced this benchmark: light load,
// and heavy load, where requests queue. Then it measures capacity with
// a closed loop, one client per connection. p50_ms and tail_ms are
// taken at light load: at heavy load, latency swings with every
// percent the machine's speed drifts, and its spread between runs
// (about 0.2 of the median) is too wide for a bound; it is printed
// beside them.

var gatewayMix = &workload{
	name: "gateway-mix",
	why: "web-gateway visitors: closed-loop capacity, open-loop latency at 15% of it; 60% resubmit popular pages, " +
		"70% want the HTML report: cache, key hashing, report and HTTP intake show",
	style:   "json",
	prepare: prepareGateway,
}

const (
	gatewayPoolDocs = 256
	gatewayPopular  = 0.60
	// gatewayCapacity is the closed loop's requests a second on the
	// nominal machine at the commit that introduced this benchmark: the
	// median ops_per_s of seeds 1-10. The open loop runs at the frozen
	// shares gatewayLight and gatewayHeavy of this capacity, for
	// gatewayLightShare and gatewayHeavyShare of a stretch of
	// measurement; the closed loop does the rest of the stretch's work,
	// at gatewayCapacity requests a second.
	gatewayCapacity   = 1707.0
	gatewayLight      = 0.15
	gatewayHeavy      = 0.60
	gatewayLightShare = 0.6
	gatewayHeavyShare = 0.15
	// gatewayDocName is the name the gateway gives pasted documents.
	gatewayDocName    = "pasted HTML"
	benchSpanHeader   = "X-Bench-Span"
	benchFormatHeader = "X-Bench-Format"
)

type gatewayInputs struct {
	seed   int64
	docs   []doc    // the pool; document r has popularity rank r
	esc    []string // the documents, url-encoded for the html field
	sched  []gwRequest
	gaps   []float64 // open-loop arrival gaps at one request a second
	expect []gwExpect
}

// gwExpect is what the gateway must answer for one pool document.
type gwExpect struct {
	json, sarif digest // direct renders of the document's finding stream
	findings    int
	// unique and uniqueSummary are the finding count and the json
	// summary line for the document behind a visitor comment.
	unique        int
	uniqueSummary string
}

func prepareGateway(o options, ck *tally) (inputs, error) {
	n := scaled(gatewayPoolDocs, o.scale)
	sizes := lognormalSizes(n, 16<<10, 1.0, 2<<10, 256<<10)
	// Sizes go to popularity ranks by a fixed shuffle, not by the seed,
	// so every seed's most requested documents have the same sizes.
	bySize := rand.New(rand.NewSource(0)).Perm(n)
	r := rng(o.seed, "gateway/docs")
	in := &gatewayInputs{
		seed:   o.seed,
		docs:   make([]doc, n),
		esc:    make([]string, n),
		expect: make([]gwExpect, n),
		sched:  gatewaySchedule(o.seed, 1<<16, n, gatewayPopular),
		gaps:   arrivalGaps(o.seed, 1<<16),
	}
	l, err := lint.New(lint.Options{})
	if err != nil {
		return nil, err
	}
	for i := range in.docs {
		src := document(r.Int63(), sizes[bySize[i]], 0.05)
		in.docs[i] = doc{name: gatewayDocName, src: src}
		in.esc[i] = url.QueryEscape(src)
		e := &in.expect[i]
		var rec warn.Recorder
		l.CheckStringTo(gatewayDocName, src, &rec)
		e.findings = len(rec.Messages)
		for _, rd := range []render.Renderer{render.NewJSON(&e.json), render.NewSARIF(&e.sarif)} {
			rec.Replay(rd)
			if err := rd.Close(); err != nil {
				return nil, err
			}
		}
		var uj bytes.Buffer
		jr := render.NewJSON(&uj)
		l.CheckStringTo(gatewayDocName, visitorComment(o.seed, 0)+src, jr)
		if err := jr.Close(); err != nil {
			return nil, err
		}
		lines := strings.Split(strings.TrimSuffix(uj.String(), "\n"), "\n")
		e.unique, e.uniqueSummary = len(lines)-1, lines[len(lines)-1]
	}
	return in, nil
}

func (in *gatewayInputs) probeDocs() []doc { return sample(in.docs, 1<<20) }

func (in *gatewayInputs) cleanup() {}

// newGateway wires a gateway handler the way cmd/weblint-gateway does
// with its default flags.
func newGateway() (http.Handler, error) {
	l, err := lint.New(lint.Options{})
	if err != nil {
		return nil, err
	}
	h := gateway.NewHandler(l)
	h.MaxUpload = 2 << 20
	h.Limiter = serve.NewLimiter(2*runtime.GOMAXPROCS(0), 2*time.Second)
	h.LintBudget = 10 * time.Second
	h.Fetcher = fetch.New(fetch.Options{Timeout: 15 * time.Second, MaxBody: h.MaxUpload, UserAgent: "weblint-gateway/2.0"})
	h.Cache = resultcache.New(resultcache.DefaultMaxBytes)
	h.Metrics = gateway.NewMetrics()
	h.Metrics.ObserveState(h.Limiter, h.Cache)
	return h.Mux(&serve.Health{}, func(any) {}), nil
}

func (in *gatewayInputs) setup(ck *tally) (system, error) {
	mux, err := newGateway()
	if err != nil {
		return nil, err
	}
	conns := runtime.GOMAXPROCS(0)
	s := &gatewaySystem{in: in, html: make([]digest, len(in.docs))}
	s.srv = httptest.NewUnstartedServer(s.timed(mux))
	s.srv.Config.ReadHeaderTimeout = 10 * time.Second
	s.srv.Config.ReadTimeout = 30 * time.Second
	s.srv.Config.WriteTimeout = 60 * time.Second
	s.srv.Config.IdleTimeout = 2 * time.Minute
	s.srv.Start()
	s.client = &http.Client{Transport: &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	// Warm-up: every pool document once as json, which fills its cache
	// entry, and once as html, whose report later repeats must match.
	for i := range in.docs {
		for _, format := range []string{"json", "html"} {
			res := s.do(gwRequest{doc: i, format: format}, "", 0, nil)
			ok := res.err == nil && res.status == http.StatusOK
			if format == "json" {
				ok = ok && digestOf(res.body) == in.expect[i].json
			} else {
				ok = ok && bytes.Contains(res.body, problems(in.expect[i].findings))
				s.html[i] = digestOf(res.body)
			}
			ck.check(ok, "gateway warm-up %s of document %d: status %d, err %v", format, i, res.status, res.err)
			res.release()
		}
	}
	return s, nil
}

type gatewaySystem struct {
	in     *gatewayInputs
	srv    *httptest.Server
	client *http.Client
	html   []digest     // each document's html report
	next   atomic.Int64 // next request of the schedule
	tr     atomic.Pointer[tracer]
	stats  gwStats

	arrival int             // next gap of the arrival process
	late    []time.Duration // how late the open loop sent each request
	backlog int             // most requests outstanding at once
}

func (s *gatewaySystem) close() {
	s.client.CloseIdleConnections()
	s.srv.Close()
}

// gwStats counts responses by cache disposition.
type gwStats struct {
	hit, miss, coalesced atomic.Int64
}

// timed wraps the gateway's mux, recording the server's part of each
// request of a traced run as a span named by cache disposition and
// format (gateway.hit.html, gateway.miss.json, ...), under the
// client's span for the same request.
func (s *gatewaySystem) timed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := s.tr.Load()
		if tr == nil {
			next.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		next.ServeHTTP(w, r)
		t1 := time.Now()
		parent, _ := strconv.Atoi(r.Header.Get(benchSpanHeader))
		disp := w.Header().Get("X-Weblint-Cache")
		if disp == "" {
			disp = "none"
		}
		tr.add("gateway."+disp+"."+r.Header.Get(benchFormatHeader), parent, 0, t0, t1)
	})
}

// gwResult is one response, its body held in a pooled buffer until
// release.
type gwResult struct {
	status int
	disp   string
	body   []byte
	buf    *bytes.Buffer
	err    error
}

var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func (r gwResult) release() {
	if r.buf != nil {
		bodyPool.Put(r.buf)
	}
}

// do posts q's document (behind comment, if any) as the html form
// field, the way the gateway's own form does.
func (s *gatewaySystem) do(q gwRequest, comment string, i int64, tr *tracer) gwResult {
	head := "format=" + q.format + "&html=" + url.QueryEscape(comment)
	esc := s.in.esc[q.doc]
	req, err := http.NewRequest(http.MethodPost, s.srv.URL+"/",
		io.MultiReader(strings.NewReader(head), strings.NewReader(esc)))
	if err != nil {
		return gwResult{err: err}
	}
	req.ContentLength = int64(len(head) + len(esc))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	span := tr.begin("http.request", 0, i)
	if tr != nil {
		req.Header.Set(benchSpanHeader, strconv.Itoa(span))
		req.Header.Set(benchFormatHeader, q.format)
	}
	defer tr.end(span)
	resp, err := s.client.Do(req)
	if err != nil {
		return gwResult{err: err}
	}
	defer resp.Body.Close()
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return gwResult{status: resp.StatusCode, disp: resp.Header.Get("X-Weblint-Cache"), body: buf.Bytes(), buf: buf, err: err}
}

// submit sends request i of the schedule and checks its response.
func (s *gatewaySystem) submit(i int64, tr *tracer, ck *tally) {
	q := s.in.sched[i%int64(len(s.in.sched))]
	comment := ""
	if q.unique {
		comment = visitorComment(s.in.seed, int(i))
	}
	res := s.do(q, comment, i, tr)
	defer res.release()
	st := &s.stats
	switch res.disp {
	case "hit":
		st.hit.Add(1)
	case "miss":
		st.miss.Add(1)
	case "coalesced":
		st.coalesced.Add(1)
	}
	ck.check(res.err == nil && res.status == http.StatusOK && s.correct(q, res),
		"gateway request %d (document %d, %s, unique %v): status %d, cache %q, err %v",
		i, q.doc, q.format, q.unique, res.status, res.disp, res.err)
}

// correct checks a 200 response's body. A repeat must equal the
// document's direct render (json, sarif) or its warm-up report (html);
// a unique submission must be a fresh lint with the document's
// findings.
func (s *gatewaySystem) correct(q gwRequest, res gwResult) bool {
	e := &s.in.expect[q.doc]
	if !q.unique {
		switch q.format {
		case "json":
			return digestOf(res.body) == e.json
		case "sarif":
			return digestOf(res.body) == e.sarif
		}
		return digestOf(res.body) == s.html[q.doc]
	}
	if res.disp != "miss" && res.disp != "coalesced" {
		return false
	}
	switch q.format {
	case "json":
		body := bytes.TrimSuffix(res.body, []byte("\n"))
		last := body[bytes.LastIndexByte(body, '\n')+1:]
		return bytes.Count(body, []byte("\n")) == e.unique && string(last) == e.uniqueSummary
	case "sarif":
		return bytes.Count(res.body, []byte(`"ruleId"`)) == e.unique
	}
	return bytes.Contains(res.body, problems(e.unique))
}

// problems is the line of the gateway's report page that counts n
// findings.
func problems(n int) []byte {
	if n == 0 {
		return []byte("No problems found")
	}
	return fmt.Appendf(nil, "<P>%d problem(s) found", n)
}

func digestOf(b []byte) digest {
	var d digest
	d.Write(b)
	return d
}

func (s *gatewaySystem) measure(d time.Duration, speed float64, tr *tracer, ck *tally) loopResult {
	s.tr.Store(tr)
	defer s.tr.Store(nil)

	// Latency: the open loop at light, then at heavy load. Light load
	// comes first, right after the calibration, so it starts on a quiet
	// system just collected. Run after the closed loop, it met at random
	// the collection that loop's garbage had started, and that set its
	// tail.
	light := time.Duration(float64(d) * gatewayLightShare)
	heavy := time.Duration(float64(d) * gatewayHeavyShare)
	res := loopResult{
		lat:   s.openLoopAt(light, gatewayLight*gatewayCapacity, speed, tr, ck),
		heavy: s.openLoopAt(heavy, gatewayHeavy*gatewayCapacity, speed, tr, ck),
	}

	// Capacity: a closed loop, one client per connection.
	closed := d - light - heavy
	n := max(1, int64(math.Round(closed.Seconds()*gatewayCapacity)))
	end := s.next.Load() + n
	var wg sync.WaitGroup
	t0 := time.Now()
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s.next.Add(1) - 1; i < end; i = s.next.Add(1) - 1 {
				s.submit(i, tr, ck)
			}
		}()
	}
	wg.Wait()
	res.ops, res.busy = int(n), time.Since(t0)
	s.next.Store(end)
	return res
}

// openLoopAt sends the requests of an open loop of d on the nominal
// machine at rate requests a second there, and returns their
// latencies. On a machine at speed it sends speed times as fast, for
// d/speed. Arrivals continue the seeded Poisson process where the
// previous stretch stopped.
func (s *gatewaySystem) openLoopAt(d time.Duration, rate, speed float64, tr *tracer, ck *tally) []time.Duration {
	var due []time.Duration
	for at := 0.0; ; s.arrival++ {
		at += s.in.gaps[s.arrival%len(s.in.gaps)] / rate
		if at >= d.Seconds() {
			break
		}
		due = append(due, time.Duration(at/speed*float64(time.Second)))
	}
	base := s.next.Add(int64(len(due))) - int64(len(due))
	lat, late, backlog := openLoop(due, func(k int) { s.submit(base+int64(k), tr, ck) })
	s.late = append(s.late, late...)
	s.backlog = max(s.backlog, backlog)
	return lat
}

// settle has nothing to wait for: every request has been answered,
// and the gateway does no work between requests.
func (s *gatewaySystem) settle(*tally) {}

func (s *gatewaySystem) finish(ck *tally) []note {
	st := &s.stats
	hits := st.hit.Load()
	served := hits + st.miss.Load() + st.coalesced.Load()
	notes := []note{
		{"resultcache.hit_ratio", float64(hits) / float64(max(served, 1)), "ratio"},
		{"resultcache.coalesced", float64(st.coalesced.Load()), "count"},
		{"loadgen.late_ms.p99", ms(newDist(s.late).percentile(99)), "ms"},
		{"loadgen.backlog_max", float64(s.backlog), "count"},
	}
	return append(notes, s.scrape()...)
}

// scrape reads the cache gauges from the gateway's /metrics.
func (s *gatewaySystem) scrape() []note {
	resp, err := s.client.Get(s.srv.URL + "/metrics")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	vals := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, v, ok := strings.Cut(sc.Text(), " ")
		if ok && !strings.HasPrefix(name, "#") {
			vals[name], _ = strconv.ParseFloat(v, 64)
		}
	}
	return []note{
		{"resultcache.entries", vals["weblint_gateway_cache_entries"], "count"},
		{"resultcache.bytes", vals["weblint_gateway_cache_bytes"] / 1e6, "MB"},
	}
}

// openLoop calls send(k) at offset due[k] from its start, on a
// goroutine of its own, whatever happened to the requests before. Each
// request's latency is measured from its due time, so a stall shows in
// the latency of every request due during it; late is how far behind
// schedule the generator itself sent each request, and backlogMax the
// most requests outstanding at once.
func openLoop(due []time.Duration, send func(k int)) (lat, late []time.Duration, backlogMax int) {
	lat = make([]time.Duration, len(due))
	late = make([]time.Duration, len(due))
	var outstanding atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k, at := range due {
		if wait := time.Until(start.Add(at)); wait > 0 {
			time.Sleep(wait)
		}
		late[k] = time.Since(start) - at
		backlogMax = max(backlogMax, int(outstanding.Add(1)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			send(k)
			lat[k] = time.Since(start) - at
			outstanding.Add(-1)
		}()
	}
	wg.Wait()
	return lat, late, backlogMax
}
