// Command weblint-siege load-tests a running weblint gateway: it
// generates a corpus of synthetic HTML documents, POSTs them as
// multipart file-upload submissions at one or more concurrency levels, and
// reports latency percentiles alongside the outcome counts that the
// serving defences produce — 429 (shed by admission control), 504
// (lint budget exceeded), and transport errors. The admission and
// budget counters are first-class results, not failures: a hardened
// gateway under overload is *supposed* to shed load fast.
//
// With -repeat the request schedule becomes repeat-heavy: that
// fraction of requests re-submits a document from a small popular set
// (zipf-weighted, so some documents are much hotter than others, the
// way real traffic repeats), and the rest are unique documents. The
// report then splits latency percentiles by the gateway's
// X-Weblint-Cache disposition and records the observed hit rate — the
// numbers that show the result cache serving repeats at memory speed.
//
// Usage:
//
//	weblint-siege [-url http://localhost:8017/] [-conns 1,4,16]
//	              [-requests 200] [-doc-bytes 16384] [-error-rate 0.05]
//	              [-repeat 0] [-format html]
//	              [-timeout 30s] [-o BENCH_gateway.json]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"weblint/internal/corpus"
)

type levelResult struct {
	Conns            int     `json:"conns"`
	Requests         int     `json:"requests"`
	OK               int64   `json:"ok"`
	Rejected429      int64   `json:"rejected_429"`
	DeadlineExceeded int64   `json:"deadline_exceeded_504"`
	OtherStatus      int64   `json:"other_status"`
	TransportErrors  int64   `json:"transport_errors"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	MaxMs            float64 `json:"max_ms"`
	ThroughputRPS    float64 `json:"throughput_rps"`

	// Cache outcomes, classified from the X-Weblint-Cache response
	// header (never a hit against a -cache-off gateway, which stores
	// nothing). The split percentiles are the cache's headline number:
	// a hit never lints, so HitP50Ms should sit an order of magnitude
	// under MissP50Ms.
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	CacheCoalesced int64   `json:"cache_coalesced"`
	CacheHitRate   float64 `json:"cache_hit_rate"`
	HitP50Ms       float64 `json:"hit_p50_ms"`
	MissP50Ms      float64 `json:"miss_p50_ms"`
}

type report struct {
	Benchmark   string        `json:"benchmark"`
	Date        string        `json:"date"`
	GoVersion   string        `json:"go_version"`
	Gomaxprocs  int           `json:"gomaxprocs"`
	Target      string        `json:"target"`
	DocBytes    int           `json:"doc_bytes"`
	Docs        int           `json:"corpus_docs"`
	RepeatRatio float64       `json:"repeat_ratio"`
	Format      string        `json:"format"`
	Results     []levelResult `json:"results"`
}

func main() {
	target := flag.String("url", "http://localhost:8017/", "gateway URL to siege")
	connsFlag := flag.String("conns", "1,4,16", "comma-separated concurrency levels")
	requests := flag.Int("requests", 200, "requests per concurrency level")
	docBytes := flag.Int("doc-bytes", 16<<10, "approximate size of each generated document")
	errorRate := flag.Float64("error-rate", 0.05, "markup error rate in the generated corpus")
	repeat := flag.Float64("repeat", 0,
		"fraction of requests that re-submit a popular document (0 = legacy rotating corpus)")
	format := flag.String("format", "html", "report format to request (html, json, sarif, baseline, fixed)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request client timeout")
	out := flag.String("o", "", "write the JSON report to this file (default stdout)")
	flag.Parse()
	if *repeat < 0 || *repeat > 1 {
		fmt.Fprintf(os.Stderr, "weblint-siege: -repeat must be in [0,1]\n")
		os.Exit(2)
	}

	var levels []int
	for _, s := range strings.Split(*connsFlag, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "weblint-siege: bad -conns entry %q\n", s)
			os.Exit(2)
		}
		levels = append(levels, n)
	}

	// The request schedule is precomputed and deterministic, so two
	// siege runs are comparable. With -repeat 0 it is the legacy small
	// rotating corpus; otherwise buildSchedule mixes zipf-weighted
	// popular documents with unique ones at the requested ratio.
	const corpusDocs = 16
	docs := buildSchedule(corpusDocs, *docBytes, *errorRate, *repeat, *requests)

	client := &http.Client{Timeout: *timeout}
	rep := report{
		Benchmark:   "gateway-siege",
		Date:        time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		Gomaxprocs:  runtime.GOMAXPROCS(0),
		Target:      *target,
		DocBytes:    *docBytes,
		Docs:        corpusDocs,
		RepeatRatio: *repeat,
		Format:      *format,
	}

	for _, conns := range levels {
		res := siege(client, *target, docs, conns, *requests, *format)
		rep.Results = append(rep.Results, res)
		fmt.Fprintf(os.Stderr,
			"conns=%-3d ok=%-4d 429=%-4d 504=%-4d err=%-3d p50=%.1fms p99=%.1fms %.1f req/s hit-rate=%.2f hit-p50=%.2fms miss-p50=%.2fms\n",
			conns, res.OK, res.Rejected429, res.DeadlineExceeded,
			res.TransportErrors+res.OtherStatus, res.P50Ms, res.P99Ms, res.ThroughputRPS,
			res.CacheHitRate, res.HitP50Ms, res.MissP50Ms)
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "weblint-siege: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "weblint-siege: %v\n", err)
		os.Exit(1)
	}
}

// buildSchedule generates the request schedule. ratio 0 keeps the
// legacy behaviour: a small rotating corpus of corpusDocs documents
// that workers index round-robin. A positive ratio produces one
// document per request: with probability ratio a popular document
// (zipf-weighted over the corpus, so a few documents dominate the
// repeats the way real traffic does), otherwise a unique document
// seen exactly once. Everything is seeded, so the schedule — and the
// achievable hit rate — is identical across runs.
func buildSchedule(corpusDocs, docBytes int, errorRate, ratio float64, total int) []string {
	popular := make([]string, corpusDocs)
	for i := range popular {
		popular[i] = corpus.GenerateSized(int64(i+1), docBytes, corpus.Uniform(errorRate))
	}
	if ratio == 0 {
		return popular
	}
	rng := rand.New(rand.NewSource(42))
	zipf := rand.NewZipf(rng, 1.3, 1, uint64(corpusDocs-1))
	docs := make([]string, total)
	for i := range docs {
		if rng.Float64() < ratio {
			docs[i] = popular[zipf.Uint64()]
		} else {
			// Unique documents get seeds far from the popular set.
			docs[i] = corpus.GenerateSized(int64(1000+i), docBytes, corpus.Uniform(errorRate))
		}
	}
	return docs
}

// siege fires total requests at the gateway from conns workers and
// classifies every outcome, splitting latencies by the gateway's
// cache disposition when the X-Weblint-Cache header is present.
func siege(client *http.Client, target string, docs []string, conns, total int, format string) levelResult {
	res := levelResult{Conns: conns, Requests: total}
	latencies := make([]time.Duration, total)
	classes := make([]byte, total) // 'h'it, 'm'iss, 'c'oalesced, 0 = uncached/error

	var next atomic.Int64
	var ok, rejected, deadline, other, transport atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total {
					return
				}
				body, contentType := multipartSubmission(docs[i%len(docs)], format)
				t0 := time.Now()
				resp, err := client.Post(target, contentType, bytes.NewReader(body))
				latencies[i] = time.Since(t0)
				if err != nil {
					transport.Add(1)
					continue
				}
				// Drain so the connection is reused.
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.Header.Get("X-Weblint-Cache") {
				case "hit":
					classes[i] = 'h'
				case "miss":
					classes[i] = 'm'
				case "coalesced":
					classes[i] = 'c'
				}
				switch resp.StatusCode {
				case http.StatusOK:
					ok.Add(1)
				case http.StatusTooManyRequests:
					rejected.Add(1)
				case http.StatusGatewayTimeout:
					deadline.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	res.OK = ok.Load()
	res.Rejected429 = rejected.Load()
	res.DeadlineExceeded = deadline.Load()
	res.OtherStatus = other.Load()
	res.TransportErrors = transport.Load()
	res.ThroughputRPS = float64(total) / elapsed.Seconds()

	var hitLat, missLat []time.Duration
	for i, c := range classes {
		switch c {
		case 'h':
			res.CacheHits++
			hitLat = append(hitLat, latencies[i])
		case 'm':
			res.CacheMisses++
			missLat = append(missLat, latencies[i])
		case 'c':
			res.CacheCoalesced++
		}
	}
	if cached := res.CacheHits + res.CacheMisses + res.CacheCoalesced; cached > 0 {
		res.CacheHitRate = float64(res.CacheHits) / float64(cached)
	}
	res.HitP50Ms = p50ms(hitLat)
	res.MissP50Ms = p50ms(missLat)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(latencies)-1))
		return float64(latencies[idx]) / float64(time.Millisecond)
	}
	res.P50Ms = pct(0.50)
	res.P99Ms = pct(0.99)
	res.MaxMs = float64(latencies[len(latencies)-1]) / float64(time.Millisecond)
	return res
}

// multipartSubmission encodes one document as a multipart file-upload
// request body (the gateway's upload field, plus the format field when
// one is requested). Upload is the transport the siege measures the
// gateway through: unlike a url-encoded paste it ships the document
// bytes verbatim, so latency numbers reflect lint and cache work, not
// percent-encoding on both ends.
func multipartSubmission(doc, format string) (body []byte, contentType string) {
	var b bytes.Buffer
	w := multipart.NewWriter(&b)
	fw, err := w.CreateFormFile("upload", "siege.html")
	if err == nil {
		_, err = io.WriteString(fw, doc)
	}
	if err == nil && format != "" && format != "html" {
		err = w.WriteField("format", format)
	}
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		// Purely in-memory encoding: the only failures are programming
		// errors, which should stop the run loudly.
		panic(err)
	}
	return b.Bytes(), w.FormDataContentType()
}

// p50ms returns the median of lat in milliseconds (0 for an empty
// class, which the report reads as "no such responses").
func p50ms(lat []time.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return float64(lat[len(lat)/2]) / float64(time.Millisecond)
}
