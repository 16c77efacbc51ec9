// Command benchsuite is weblint's end-to-end benchmark. It times the
// three kinds of user the paper's weblint serves, each through the
// surface that serves them, in four workloads:
//
//	site-batch     CI linting a whole site: pages in memory through engine.RunTo, lint renderer
//	legacy-sarif   CI code scanning of large error-dense pages: files through engine.RunTo, SARIF
//	gateway-mix    web-gateway visitors: open-loop HTTP at two rates, then closed-loop capacity
//	editor-typing  an author in an editor: LSP didChange bursts and diagnostic pulls
//
// One run measures one workload for a fixed time, checks every output
// against a reference, and prints a report whose last line is one JSON
// object:
//
//	{"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up time,
// operations per second, median and tail operation latency);
// with --trace 1 they are the per-layer ones, from a traced run that
// also drives each layer's public entry point on the workload's own
// documents. Timing is taken only around calls into the program's
// public functions; nothing inside the program is instrumented.
//
// Usage (from the root of a checkout; see README.md):
//
//	bash benchsuite/run.sh --workload site-batch --seed 1 --seconds 15 --trace 0
//	bash benchsuite/run.sh --workload all --seed 1 --seconds 15
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// setupRuns is how many times a run builds its system under test; the
// reported set-up time is their median, and the last one is measured.
const setupRuns = 3

// endToEnd and perLayer are the metrics a run reports with --trace 0
// and --trace 1; BENCHMARK.json declares the same names and units.
//
// An end-to-end bound is three times the widest spread the metric
// showed on any workload over ten seeds (README.md, Steadiness),
// rounded up to 0.01 and capped at 0.25, so that run-to-run noise
// alone stays within a third of it. setup_s takes the cap, the largest
// bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.23},
	{"p50_ms", "ms", "lower", 0.24},
	{"tail_ms", "ms", "lower", 0.25},
}

var perLayer = []metricDef{
	{"htmltoken.ns_per_byte", "ns/B", "lower", 0},
	{"htmltoken.tokens_per_kib", "1/KiB", "lower", 0},
	{"htmltoken.share", "ratio", "lower", 0},
	{"core.ns_per_byte", "ns/B", "lower", 0},
	{"core.allocs_per_kib", "1/KiB", "lower", 0},
	{"core.msgs_per_kib", "1/KiB", "lower", 0},
	{"render.ns_per_msg.lint", "ns", "lower", 0},
	{"render.ns_per_msg.json", "ns", "lower", 0},
	{"render.ns_per_msg.sarif", "ns", "lower", 0},
	{"render.bytes_per_msg.sarif", "B", "lower", 0},
	{"render.share", "ratio", "lower", 0},
	{"resultcache.keyof_ns_per_byte", "ns/B", "lower", 0},
	{"engine.speedup", "ratio", "higher", 0},
	{"gateway.miss_html_ms", "ms", "lower", 0},
	{"gateway.hit_html_ms", "ms", "lower", 0},
	{"gateway.miss_json_ms", "ms", "lower", 0},
	{"gateway.hit_json_ms", "ms", "lower", 0},
	{"gateway.miss_sarif_ms", "ms", "lower", 0},
	{"gateway.response_kib.html", "KiB", "lower", 0},
	{"session.apply_ms.p50", "ms", "lower", 0},
	{"session.apply_ms.p99", "ms", "lower", 0},
	{"session.fallback_ratio", "ratio", "lower", 0},
	{"lsp.open_ms", "ms", "lower", 0},
	{"lsp.overhead_ms.p50", "ms", "lower", 0},
	{"lsp.response_kib.p50", "KiB", "lower", 0},
	{"gc.cycles_per_s", "1/s", "lower", 0},
	{"gc.pause_ms_per_s", "ms/s", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"peak_rss_mb", "MB", "lower", 0},
}

// metricDef declares one metric: its unit, which direction is better,
// and, for an end-to-end metric, the share of the parent's median by
// which it may worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchsuite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 15, "the work to measure, in seconds of the nominal machine")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run; 0 reports end-to-end metrics")
	traceOut := fs.String("trace-out", "", "with --trace 1, also write the run's spans to this file (Chrome trace format)")
	dir := fs.String("dir", ".bench_build", "scratch directory for generated files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "benchsuite: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *dir, stdout, stderr)
	}
	w := lookup(*name)
	if w == nil {
		fmt.Fprintf(stderr, "benchsuite: unknown workload %q (want %s or all)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if err := os.MkdirAll(*dir, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 2
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		scale:   1,
		dir:     *dir,
		log:     stderr,
	}
	rep, err := runWorkload(w, o, *traced == 1, *traceOut, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchsuite: %s: %v\n", w.name, err)
		return 2
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// options configure one run of one workload.
type options struct {
	seed    int64
	seconds time.Duration // the work to measure, as time on the nominal machine
	// scale multiplies input counts and sizes: 1 for real runs; the
	// smoke tests pass a small fraction.
	scale float64
	dir   string    // scratch directory for generated files
	log   io.Writer // check failures are described here
}

// A workload generates its inputs once per run and then builds fresh
// systems under test from them.
type workload struct {
	name string
	why  string
	// style is the renderer the workload's own output uses; the
	// per-layer render.share is measured in it.
	style   string
	prepare func(o options, ck *tally) (inputs, error)
}

// inputs are a workload's generated inputs.
type inputs interface {
	// setup builds a fresh system under test, warms it up (pools, page
	// cache, popular cache entries), and checks the warm-up outputs.
	setup(ck *tally) (system, error)
	// probeDocs are the documents the per-layer probes run on.
	probeDocs() []doc
	cleanup()
}

// system is one running system under test.
type system interface {
	// measure runs the work the workload does in d on the nominal
	// machine; spans go to tr when it is non-nil. Each call continues the
	// workload's inputs where the previous one stopped. speed is the
	// machine's speed relative to the nominal one, as last calibrated: an
	// open loop sends at its rate times speed, so that it loads the
	// machine as much as it would load the nominal one.
	measure(d time.Duration, speed float64, tr *tracer, ck *tally) loopResult
	// settle waits until the work the system went on with after its
	// last operation, such as a debounced re-lint, has finished, and
	// checks that work's output.
	settle(ck *tally)
	// finish checks the system's final state and returns observations
	// over every measure call so far.
	finish(ck *tally) []note
	close()
}

// loopResult is what a stretch of measurement observed.
type loopResult struct {
	ops  int             // operations completed at full load
	busy time.Duration   // the time those operations took
	lat  []time.Duration // the latency samples p50_ms and tail_ms are taken from
	// heavy holds latency samples at heavy load, for a workload that
	// also runs one (gateway-mix); the account prints them, no metric
	// reports them.
	heavy []time.Duration
}

func (r *loopResult) add(s loopResult) {
	r.ops += s.ops
	r.busy += s.busy
	r.lat = append(r.lat, s.lat...)
	r.heavy = append(r.heavy, s.heavy...)
}

func (r loopResult) opsPerSec() float64 { return float64(r.ops) / r.busy.Seconds() }

// scaled returns r with its times scaled by speed to the nominal
// machine.
func (r loopResult) scaled(speed float64) loopResult {
	scale := func(xs []time.Duration) []time.Duration {
		out := make([]time.Duration, len(xs))
		for i, x := range xs {
			out[i] = time.Duration(float64(x) * speed)
		}
		return out
	}
	return loopResult{ops: r.ops, busy: time.Duration(float64(r.busy) * speed), lat: scale(r.lat), heavy: scale(r.heavy)}
}

// measureSlices is how many slices a measurement is cut into. Each is
// followed by calibration a fifth as long, and its times are scaled by
// the speed the calibration saw on either side of it.
const measureSlices = 20

// measurement is what measure observed, raw and scaled to the nominal
// machine, and the wall time its slices took.
type measurement struct {
	raw, scaled loopResult
	wall        time.Duration
}

// measure runs sys for the work of d on the nominal machine, in
// slices interleaved with calibration. Before each calibration the
// system settles and the Go runtime finishes a collection, untimed, so
// that the calibration loop shares the machine with none of the
// program's work.
func measure(sys system, d time.Duration, tr *tracer, ck *tally, cal *calibration) measurement {
	var m measurement
	for range measureSlices {
		var r loopResult
		speed := cal.around(d/measureSlices/5, func() {
			t0 := time.Now()
			r = sys.measure(d/measureSlices, cal.last, tr, ck)
			m.wall += time.Since(t0)
			quiesce(sys, ck)
		})
		m.raw.add(r)
		m.scaled.add(r.scaled(speed))
	}
	return m
}

// quiesce lets sys settle and then runs a full collection, which also
// finishes any collection in progress.
func quiesce(sys system, ck *tally) {
	sys.settle(ck)
	runtime.GC()
}

// note is a printed observation that is not a declared metric.
type note struct {
	name  string
	value float64
	unit  string
}

var workloads = []*workload{siteBatch, legacySARIF, gatewayMix, editorTyping}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line a run prints.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload prepares w's inputs, sets its system up setupRuns times,
// and measures the last one: untraced for the end-to-end metrics, or
// half untraced and half traced, plus the layer probes, for the
// per-layer ones. A human-readable account goes to out.
func runWorkload(w *workload, o options, traced bool, traceOut string, out io.Writer) (report, error) {
	ck := &tally{log: o.log}
	in, err := w.prepare(o, ck)
	if err != nil {
		return report{}, err
	}
	defer in.cleanup()

	var cal calibration
	calib := o.seconds / measureSlices / 5
	cal.run(calib)
	var setups, rawSetups []float64
	var sys system
	for range setupRuns {
		if sys != nil {
			sys.close()
		}
		var took time.Duration
		speed := cal.around(calib, func() {
			t0 := time.Now()
			sys, err = in.setup(ck)
			took = time.Since(t0)
			if err == nil {
				quiesce(sys, ck)
			}
		})
		if err != nil {
			return report{}, err
		}
		rawSetups = append(rawSetups, took.Seconds())
		setups = append(setups, took.Seconds()*speed)
	}
	defer sys.close()

	fmt.Fprintf(out, "workload %s  seed %d  %s measured  GOMAXPROCS %d  %s\n",
		w.name, o.seed, o.seconds, runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Fprintf(out, "  set-up: %s (median of %d)\n", fmtSeconds(rawSetups), setupRuns)

	vals := map[string]float64{}
	if !traced {
		gc0 := readGC()
		m := measure(sys, o.seconds, nil, ck, &cal)
		gc1 := readGC()
		notes := sys.finish(ck)
		raw, d := newDist(m.raw.lat), newDist(m.scaled.lat)
		level, tail := d.tail()
		_, rawTail := raw.tail()
		vals["setup_s"] = median(setups)
		vals["ops_per_s"] = m.scaled.opsPerSec()
		vals["p50_ms"] = ms(d.percentile(50))
		vals["tail_ms"] = ms(tail)
		fmt.Fprintf(out, "  operations: %.1f/s; latency p50 %.3f ms, p%.1f %.3f ms (n=%d)\n",
			m.raw.opsPerSec(), ms(raw.percentile(50)), level, ms(rawTail), len(d))
		fmt.Fprintf(out, "  scaled to the nominal machine: %.1f/s; p50 %.3f ms, p%.1f %.3f ms; set-up %.3fs\n",
			vals["ops_per_s"], vals["p50_ms"], level, vals["tail_ms"], vals["setup_s"])
		if heavy := newDist(m.scaled.heavy); len(heavy) > 0 {
			level, tail := heavy.tail()
			fmt.Fprintf(out, "  at heavy load, scaled: p50 %.3f ms, p%.1f %.3f ms (n=%d)\n",
				ms(heavy.percentile(50)), level, ms(tail), len(heavy))
		}
		printNotes(out, notes)
		printNotes(out, gc1.since(gc0, m.wall))
		return finish(ck, endToEnd, vals), nil
	}

	half := o.seconds / 2
	gc0 := readGC()
	plain := measure(sys, half, nil, ck, &cal)
	gc1 := readGC()
	tr := newTracer()
	traced1 := measure(sys, half, tr, ck, &cal)
	vals["peak_rss_mb"] = peakMemory(sys, o.seconds/measureSlices/2, cal.last, ck)
	printNotes(out, sys.finish(ck))
	plainRate, tracedRate := plain.scaled.opsPerSec(), traced1.scaled.opsPerSec()
	fmt.Fprintf(out, "  operations: %.1f/s untraced, %.1f/s traced (scaled)\n", plainRate, tracedRate)
	gcNotes := gc1.since(gc0, plain.wall)
	vals["gc.cycles_per_s"] = gcNotes[0].value
	vals["gc.pause_ms_per_s"] = gcNotes[1].value
	vals["trace.overhead_ratio"] = plainRate/tracedRate - 1
	speed := cal.around(calib, func() {
		for k, v := range probeLayers(in.probeDocs(), w.style, o.seed, o.scale, tr, ck, out) {
			vals[k] = v
		}
	})
	fmt.Fprintf(out, "  the layer probes ran at %.3f of the nominal machine's speed; the report scales their times by it\n", speed)
	for _, d := range perLayer {
		if timeUnits[d.unit] {
			vals[d.name] *= speed
		}
	}
	printSelfTimes(out, tr)
	if traceOut != "" {
		if err := tr.writeFile(traceOut); err != nil {
			return report{}, err
		}
		fmt.Fprintf(out, "  spans written to %s\n", traceOut)
	}
	return finish(ck, perLayer, vals), nil
}

// timeUnits are the units of per-layer metrics that are times, which
// the report scales to the nominal machine.
var timeUnits = map[string]bool{"ns/B": true, "ns": true, "ms": true}

// finish assembles the report for the declared metrics defs.
func finish(ck *tally, defs []metricDef, vals map[string]float64) report {
	rep := report{
		Correct:   ck.failed.Load() == 0 && ck.attempted.Load() > 0,
		Attempted: ck.attempted.Load(),
		Failed:    ck.failed.Load(),
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		rep.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	return rep
}

// tally counts the operations a run attempted and the ones that
// failed: a non-200 response, a transport or job error, or an output
// that differs from its reference. The first few failures are
// described on the log.
type tally struct {
	attempted, failed atomic.Int64
	log               io.Writer
}

// check counts one operation, failed unless ok.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted.Add(1)
	if !ok && t.failed.Add(1) <= 5 {
		fmt.Fprintf(t.log, "benchsuite: check failed: "+format+"\n", args...)
	}
	return ok
}

type gcStats struct {
	cycles uint32
	pause  time.Duration
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{m.NumGC, time.Duration(m.PauseTotalNs)}
}

// since returns GC cycles and pause time per second of d.
func (g gcStats) since(prev gcStats, d time.Duration) []note {
	s := d.Seconds()
	return []note{
		{"gc.cycles_per_s", float64(g.cycles-prev.cycles) / s, "1/s"},
		{"gc.pause_ms_per_s", ms(g.pause-prev.pause) / s, "ms/s"},
	}
}

// memoryProbes is how many times a traced run measures the peak
// resident memory of some work started from a collected heap whose
// free pages went back to the kernel. The peak still depends on
// whether a collection finishes before the work's largest allocation
// (on legacy-sarif it lands near 205 MB or near 320 MB, about half the
// time each), so the report takes the smallest: the memory the work
// needs.
const memoryProbes = 3

// peakMemory returns the least of memoryProbes peaks in MB, each over
// the work of d, untimed.
func peakMemory(sys system, d time.Duration, speed float64, ck *tally) float64 {
	least := 0.0
	for i := range memoryProbes {
		sys.settle(ck)
		debug.FreeOSMemory()
		resetPeakRSS()
		sys.measure(d, speed, nil, ck)
		if p := peakRSSMB(); i == 0 || p < least {
			least = p
		}
	}
	return least
}

// resetPeakRSS resets the kernel's peak resident set mark to the
// current resident set, so the next peakRSSMB reports the peak since.
// Where the kernel refuses, peaks run from the start of the process.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB returns the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3fs", x)
	}
	return fmt.Sprintf("%.3fs of [%s]", median(xs), strings.Join(parts, " "))
}

func printNotes(out io.Writer, notes []note) {
	for _, n := range notes {
		fmt.Fprintf(out, "  %-28s %12.4f %s\n", n.name, n.value, n.unit)
	}
}

func printSelfTimes(out io.Writer, tr *tracer) {
	lts := tr.selfTimes()
	fmt.Fprintf(out, "  %-28s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, lt := range lts {
		fmt.Fprintf(out, "  %-28s %8d %12.3f %12.3f\n", lt.name, lt.count, ms(lt.total), ms(lt.self))
	}
}

// runAll runs every workload in a child process of its own, untraced
// and then traced, so memory and GC state are per workload. It prints
// each child's report, then one JSON object holding them all, keyed
// by workload and --trace value, as its last line.
func runAll(seed int64, seconds float64, dir string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 2
	}
	suite := map[string]map[string]report{}
	status := 0
	for _, w := range workloads {
		suite[w.name] = map[string]report{}
		for _, tr := range []string{"0", "1"} {
			cmd := exec.Command(exe, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "--trace", tr, "--dir", dir)
			cmd.Stderr = stderr
			out, err := cmd.Output()
			stdout.Write(out)
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var rep report
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil || err != nil {
				fmt.Fprintf(stderr, "benchsuite: %s --trace %s failed: %v\n", w.name, tr, err)
				status = 1
				continue
			}
			if !rep.Correct {
				status = 1
			}
			suite[w.name]["trace"+tr] = rep
		}
	}
	line, err := json.Marshal(map[string]any{
		"seed": seed, "seconds": seconds,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"workloads": suite,
	})
	if err != nil {
		fmt.Fprintln(stderr, "benchsuite:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	return status
}
