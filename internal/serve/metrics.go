package serve

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// This file is a minimal Prometheus client: counters, gauges and
// histograms rendered in the text exposition format (version 0.0.4).
// The repository deliberately has no third-party dependencies, and the
// slice of the Prometheus data model a lint gateway needs — monotonic
// counters, point-in-time gauges, cumulative-bucket histograms, one
// optional label — is small enough to own outright. Everything here is
// lock-free on the hot path (atomics) except labelled counters, which
// take a mutex to find a label value's counter.

// Registry holds a fixed set of metrics and serves them over HTTP in
// Prometheus text format. Register everything at startup; collection
// is concurrent-safe, registration is not.
type Registry struct {
	metrics []metric
}

// metric is anything that can render itself in exposition format.
type metric interface {
	expose(w *strings.Builder)
}

// NewRegistry returns an empty metrics registry.
func NewRegistry() *Registry { return &Registry{} }

// ServeHTTP renders every registered metric. The content type carries
// the exposition format version, which scrapers use to pick a parser.
func (reg *Registry) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	for _, m := range reg.metrics {
		m.expose(&b)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(b.String()))
}

// Counter is a monotonically increasing counter.
type Counter struct {
	name, help string
	v          atomic.Int64
}

// NewCounter registers and returns a counter. Prometheus convention:
// counter names end in _total.
func (reg *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	reg.metrics = append(reg.metrics, c)
	return c
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters are monotonic).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

func (c *Counter) expose(w *strings.Builder) {
	header(w, c.name, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.name, c.v.Load())
}

// CounterVec is a counter partitioned by one label. Label values are
// discovered at first use and reported forever after (zero-resetting a
// counter mid-flight breaks rate() queries).
type CounterVec struct {
	name, help, label string
	mu                sync.Mutex
	vals              map[string]*atomic.Int64
}

// NewCounterVec registers and returns a counter partitioned by the
// given label name.
func (reg *Registry) NewCounterVec(name, help, label string) *CounterVec {
	c := &CounterVec{name: name, help: help, label: label, vals: make(map[string]*atomic.Int64)}
	reg.metrics = append(reg.metrics, c)
	return c
}

// Inc adds one to the counter for the given label value.
func (c *CounterVec) Inc(labelValue string) {
	c.mu.Lock()
	v := c.vals[labelValue]
	if v == nil {
		v = new(atomic.Int64)
		c.vals[labelValue] = v
	}
	c.mu.Unlock()
	v.Add(1)
}

// Value returns the current count for the given label value.
func (c *CounterVec) Value(labelValue string) int64 {
	c.mu.Lock()
	v := c.vals[labelValue]
	c.mu.Unlock()
	if v == nil {
		return 0
	}
	return v.Load()
}

func (c *CounterVec) expose(w *strings.Builder) {
	c.mu.Lock()
	keys := make([]string, 0, len(c.vals))
	for k := range c.vals {
		keys = append(keys, k)
	}
	snap := make(map[string]int64, len(keys))
	for _, k := range keys {
		snap[k] = c.vals[k].Load()
	}
	c.mu.Unlock()
	sort.Strings(keys)
	header(w, c.name, c.help, "counter")
	for _, k := range keys {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", c.name, c.label, escapeLabel(k), snap[k])
	}
}

// GaugeFunc is a gauge whose value is read at scrape time — the right
// shape for instantaneous state the process already tracks (queue
// depth, slots in flight, cache size) without double bookkeeping.
type GaugeFunc struct {
	name, help string
	fn         func() int64
}

// NewGaugeFunc registers a gauge that calls fn at every scrape. fn
// must be safe to call concurrently.
func (reg *Registry) NewGaugeFunc(name, help string, fn func() int64) *GaugeFunc {
	g := &GaugeFunc{name: name, help: help, fn: fn}
	reg.metrics = append(reg.metrics, g)
	return g
}

func (g *GaugeFunc) expose(w *strings.Builder) {
	header(w, g.name, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.name, g.fn())
}

// Histogram is a fixed-bucket histogram of float64 observations
// (seconds, by Prometheus convention). Buckets are cumulative in the
// exposition, per the format; internally each bucket counts only its
// own range so Observe is one atomic increment.
type Histogram struct {
	name, help string
	bounds     []float64 // upper bounds, ascending; +Inf implicit
	buckets    []atomic.Int64
	count      atomic.Int64
	sumBits    atomic.Uint64 // float64 bits, CAS-updated
}

// NewHistogram registers a histogram with the given ascending upper
// bounds (in seconds). The +Inf bucket is implicit.
func (reg *Registry) NewHistogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{name: name, help: help, bounds: bounds}
	h.buckets = make([]atomic.Int64, len(bounds)+1)
	reg.metrics = append(reg.metrics, h)
	return h
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

func (h *Histogram) expose(w *strings.Builder) {
	header(w, h.name, h.help, "histogram")
	cum := int64(0)
	for i, b := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", h.name, formatBound(b), cum)
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", h.name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", h.name, math.Float64frombits(h.sumBits.Load()))
	fmt.Fprintf(w, "%s_count %d\n", h.name, h.count.Load())
}

func header(w *strings.Builder, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

func formatBound(b float64) string {
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// escapeLabel escapes a label value per the exposition format, which
// defines exactly three escapes inside quoted label values: backslash,
// double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}
