// Command weblint-gateway serves the weblint web gateway: a form
// where you provide HTML by entering a URL, pasting in the text, or
// through file upload, and get the weblint report back as a web page.
//
// The production stack wraps the gateway handler in the serving
// defences from internal/serve: bounded lint concurrency with a
// deadline-bounded admission queue (429 + Retry-After under
// saturation), a per-request lint budget (504), panic containment
// (500 for the crashing request only), a /healthz probe that flips to
// draining on shutdown, and graceful drain on SIGTERM.
//
// Repeat submissions are served from a content-addressed result cache
// (keyed on document hash + configuration fingerprint), concurrent
// identical submissions collapse into one lint, and /metrics exposes
// the serving stack in Prometheus text format. -cache-off only stops
// storing results: ETag/304, the collapsing of identical submissions
// and diff= requests still apply.
//
// Usage:
//
//	weblint-gateway [-addr :8017] [-no-url-fetch] [-allow-private-fetch]
//	                [-pedantic] [-x vendors] [-V version]
//	                [-max-upload bytes] [-concurrency n] [-queue-wait d]
//	                [-lint-budget d] [-fetch-timeout d] [-drain-timeout d]
//	                [-cache-size bytes] [-cache-off (store no results)]
//	                [-metrics=false]
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"

	"weblint/internal/config"
	"weblint/internal/fetch"
	"weblint/internal/gateway"
	"weblint/internal/lint"
	"weblint/internal/resultcache"
	"weblint/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8017", "listen address")
	noURL := flag.Bool("no-url-fetch", false, "disable check-by-URL (for firewalled intranet use)")
	allowPrivate := flag.Bool("allow-private-fetch", false,
		"let check-by-URL fetch private/loopback addresses (intranet gateways only)")
	pedantic := flag.Bool("pedantic", false, "enable all warnings")
	exts := flag.String("x", "", "enable vendor extensions (netscape, microsoft)")
	htmlVer := flag.String("V", "", "HTML version to check against (4.0 or 3.2)")
	maxUpload := flag.Int64("max-upload", 2<<20, "largest document accepted, in bytes (larger answers 413)")
	concurrency := flag.Int("concurrency", 2*runtime.GOMAXPROCS(0),
		"concurrent lints admitted; excess queues briefly then answers 429")
	queueWait := flag.Duration("queue-wait", 2*time.Second,
		"how long a submission may wait for a lint slot before 429")
	lintBudget := flag.Duration("lint-budget", 10*time.Second,
		"per-request lint + fetch budget; over budget answers 504 (0 = unlimited)")
	fetchTimeout := flag.Duration("fetch-timeout", 15*time.Second, "check-by-URL fetch timeout")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second,
		"how long in-flight requests get to finish after SIGTERM")
	cacheSize := flag.Int("cache-size", resultcache.DefaultMaxBytes,
		"result cache budget, in bytes")
	cacheOff := flag.Bool("cache-off", false,
		"store no results, so every submission lints (ETag/304, singleflight and diff= still apply)")
	metricsOn := flag.Bool("metrics", true, "serve Prometheus metrics at /metrics")
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this SEPARATE address (e.g. 127.0.0.1:8018); empty disables profiling entirely")
	flag.Parse()

	linter, err := lint.New(lint.Options{Settings: settings(*htmlVer, *exts), Pedantic: *pedantic})
	if err != nil {
		fmt.Fprintf(os.Stderr, "weblint-gateway: %v\n", err)
		os.Exit(2)
	}

	h := gateway.NewHandler(linter)
	h.AllowURLFetch = !*noURL
	h.MaxUpload = *maxUpload
	h.Limiter = serve.NewLimiter(*concurrency, *queueWait)
	h.LintBudget = *lintBudget
	h.Fetcher = fetch.New(fetch.Options{
		Timeout:      *fetchTimeout,
		MaxBody:      *maxUpload,
		AllowPrivate: *allowPrivate,
		UserAgent:    "weblint-gateway/2.0",
	})
	if !*cacheOff {
		h.Cache = resultcache.New(*cacheSize)
	}
	if *metricsOn {
		h.Metrics = gateway.NewMetrics()
		h.Metrics.ObserveState(h.Limiter, h.Cache)
	}

	if *pprofAddr != "" {
		ln, err := startPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "weblint-gateway: pprof listener: %v\n", err)
			os.Exit(2)
		}
		log.Printf("pprof profiling on http://%s/debug/pprof/ (keep this address private)", ln.Addr())
	}

	health := &serve.Health{}
	srv := &serve.Server{
		HTTP: &http.Server{
			Addr:    *addr,
			Handler: h.Mux(health, func(v any) { log.Printf("contained panic in check: %v", v) }),
			// Slow-client ceilings: a stalled peer cannot pin a
			// connection (and its lint slot budget) indefinitely.
			ReadHeaderTimeout: 10 * time.Second,
			ReadTimeout:       30 * time.Second,
			WriteTimeout:      60 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
		Health:       health,
		DrainTimeout: *drainTimeout,
	}

	cacheDesc := "cache off"
	if h.Cache != nil {
		cacheDesc = fmt.Sprintf("%d MiB cache", *cacheSize>>20)
	}
	log.Printf("weblint gateway listening on %s (%d lint slots, %s queue wait, %s lint budget, %s)",
		*addr, *concurrency, *queueWait, *lintBudget, cacheDesc)
	if err := srv.ListenAndServe(); err != nil {
		log.Fatalf("weblint-gateway: %v", err)
	}
}

// settings builds the linter settings from the -V and -x flags. -x
// takes a list, as the CLI's does: "netscape,microsoft" enables both.
func settings(htmlVer, exts string) *config.Settings {
	s := config.NewSettings()
	if htmlVer != "" {
		s.HTMLVersion = htmlVer
	}
	s.Extensions = append(s.Extensions, config.SplitList(exts)...)
	return s
}

// startPprof serves the net/http/pprof handlers on their own listener,
// on their own mux — never on the public gateway mux, so production
// flamegraphs are opt-in (-pprof-addr, typically loopback) and the
// default deployment exposes no profiling surface at all.
func startPprof(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Printf("weblint-gateway: pprof server: %v", err)
		}
	}()
	return ln, nil
}
