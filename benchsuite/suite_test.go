package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"weblint/internal/warn"
)

func millis(ns ...int) []time.Duration {
	out := make([]time.Duration, len(ns))
	for i, n := range ns {
		out[i] = time.Duration(n) * time.Millisecond
	}
	return out
}

func TestPercentileNearestRank(t *testing.T) {
	var s []time.Duration
	for i := 100; i >= 1; i-- {
		s = append(s, time.Duration(i)*time.Millisecond)
	}
	d := newDist(s)
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 50}, {90, 90}, {99, 99}, {99.5, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := d.percentile(c.p); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("p%v of 1..100 ms = %v, want %d ms", c.p, got, c.want)
		}
	}
	// Nearest rank on a small sample picks an observed value, never an
	// interpolation.
	small := newDist(millis(7, 3, 5, 1))
	if got := small.percentile(50); got != 3*time.Millisecond {
		t.Errorf("p50 of {1,3,5,7} = %v, want 3ms", got)
	}
	if got := small.percentile(51); got != 5*time.Millisecond {
		t.Errorf("p51 of {1,3,5,7} = %v, want 5ms", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		level float64
	}{{5000, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50}} {
		s := make([]time.Duration, c.n)
		for i := range s {
			s[i] = time.Duration(c.n-i) * time.Microsecond
		}
		d := newDist(s)
		level, v := d.tail()
		if level != c.level || v != d.percentile(c.level) {
			t.Errorf("n=%d: tail p%v = %v, want p%v = %v", c.n, level, v, c.level, d.percentile(c.level))
		}
		beyond := 0
		for _, x := range d {
			if x > v {
				beyond++
			}
		}
		if level > 50 && beyond < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, level, beyond)
		}
	}
}

// TestOpenLoopCarriesStall: one connection whose handler stalls for 50
// ms on one request. Requests due during the stall queue behind it,
// and their latency, measured from their due time, must carry that
// wait, while the generator itself stays on schedule.
func TestOpenLoopCarriesStall(t *testing.T) {
	const n, stallAt = 80, 10
	const gap, stall = time.Millisecond, 50 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	var conn sync.Mutex
	var stallFrom, stallTo time.Duration
	t0 := time.Now()
	lat, late, backlog := openLoop(due, func(k int) {
		conn.Lock()
		defer conn.Unlock()
		if k == stallAt {
			stallFrom = time.Since(t0)
			time.Sleep(stall)
			stallTo = time.Since(t0)
		}
	})
	checked := 0
	for k, at := range due {
		if at > stallFrom+time.Millisecond && at < stallTo-time.Millisecond {
			checked++
			if want := stallTo - at - 2*time.Millisecond; lat[k] < want {
				t.Errorf("request %d due during the stall: latency %v, want at least %v", k, lat[k], want)
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d requests were due during the stall", checked)
	}
	if p := newDist(late).percentile(50); p > 5*time.Millisecond {
		t.Errorf("generator median lateness %v: the stall leaked into the schedule", p)
	}
	if backlog < 10 {
		t.Errorf("backlog peaked at %d requests; requests due during the stall should pile up", backlog)
	}
}

// inputDigest hashes every input a workload's prepare generates at
// scale.
func inputDigest(t *testing.T, w *workload, seed int64) (uint64, inputs) {
	t.Helper()
	in, err := w.prepare(options{seed: seed, seconds: time.Second, scale: 0.05, dir: t.TempDir(), log: io.Discard}, &tally{log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.cleanup)
	h := fnv.New64a()
	switch in := in.(type) {
	case *batchInputs:
		for _, d := range in.docs {
			fmt.Fprintf(h, "%s\x00%s\x00", d.name, d.src)
		}
	case *gatewayInputs:
		for _, d := range in.docs {
			fmt.Fprintf(h, "%s\x00", d.src)
		}
		fmt.Fprint(h, in.sched, in.gaps)
		for i := range 1000 {
			fmt.Fprint(h, visitorComment(in.seed, i))
		}
	case *editorInputs:
		for _, d := range in.docs {
			fmt.Fprintf(h, "%s\x00%s\x00", d.name, d.src)
		}
		fmt.Fprint(h, in.trace)
	default:
		t.Fatalf("unknown inputs %T", in)
	}
	return h.Sum64(), in
}

func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, _ := inputDigest(t, w, 1)
		b, _ := inputDigest(t, w, 1)
		c, _ := inputDigest(t, w, 2)
		if a != b {
			t.Errorf("%s: seed 1 generated different inputs on two runs", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
	// Every unique gateway submission differs between seeds and
	// between requests.
	_, in1 := inputDigest(t, gatewayMix, 1)
	_, in2 := inputDigest(t, gatewayMix, 2)
	g1, g2 := in1.(*gatewayInputs), in2.(*gatewayInputs)
	seen := map[string]bool{}
	for i := range 5000 {
		c1, c2 := visitorComment(g1.seed, i), visitorComment(g2.seed, i)
		if c1 == c2 || seen[c1] || seen[c2] {
			t.Fatalf("request %d: unique gateway document repeats (%q, %q)", i, c1, c2)
		}
		seen[c1], seen[c2] = true, true
	}
}

// declared is the shape of BENCHMARK.json.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricsDeclared: BENCHMARK.json declares exactly the workloads
// and metrics the program reports, each name well formed, each metric
// with a unit and a direction, each end-to-end metric with a bound.
func TestMetricsDeclared(t *testing.T) {
	d := readDeclared(t)
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program runs %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why has %d characters, more than 200", w.name, len(w.why))
		}
	}
	check := func(kind, name, unit, better string, def metricDef) {
		if !metricName.MatchString(name) {
			t.Errorf("%s metric %q: malformed name", kind, name)
		}
		if name != def.name || unit != def.unit || better != def.better {
			t.Errorf("%s metric declared as %s [%s, %s], the program reports %s [%s, %s]",
				kind, name, unit, better, def.name, def.unit, def.better)
		}
	}
	if len(d.EndToEnd) != len(endToEnd) || len(d.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the program reports %d+%d",
			len(d.EndToEnd), len(d.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range d.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || *m.Bound != endToEnd[i].bound {
			t.Errorf("end-to-end metric %s: bound %v, want the program's %v in (0, 0.25]", m.Name, m.Bound, endToEnd[i].bound)
		}
	}
	for i, m := range d.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better, perLayer[i])
	}
}

// TestWorkloadsSmoke runs every workload end to end at a small scale,
// untraced and traced: every output check must pass, and the report
// must hold exactly the declared metrics, none of them zero where the
// contract says a metric is never zero.
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				var out, log bytes.Buffer
				o := options{seed: 1, seconds: 300 * time.Millisecond, scale: 0.05, dir: t.TempDir(), log: &log}
				rep, err := runWorkload(w, o, traced, "", &out)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, rep.Correct, rep.Attempted, rep.Failed, log.String())
				}
				defs := endToEnd
				if traced {
					defs = perLayer
				} else if !strings.Contains(out.String(), "(n=") {
					t.Errorf("report states no sample count:\n%s", out.String())
				}
				var got, want []string
				for name, m := range rep.Metrics {
					got = append(got, name+" "+m.Unit)
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v", name, m.Value)
					}
				}
				for _, d := range defs {
					want = append(want, d.name+" "+d.unit)
				}
				slices.Sort(got)
				slices.Sort(want)
				if !slices.Equal(got, want) {
					t.Errorf("traced=%v: reported %v, declared %v", traced, got, want)
				}
			}
		})
	}
}

// TestChecksCatchWrongOutput: each workload's output check fails when
// the output differs from its reference, so a passing run means the
// outputs were really compared.
func TestChecksCatchWrongOutput(t *testing.T) {
	prepare := func(w *workload) inputs {
		in, err := w.prepare(options{seed: 1, seconds: time.Second, scale: 0.05, dir: t.TempDir(), log: io.Discard}, &tally{log: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(in.cleanup)
		return in
	}
	t.Run("batch output differs from the sequential reference", func(t *testing.T) {
		in := prepare(siteBatch).(*batchInputs)
		in.ref.crc++
		ck := &tally{log: io.Discard}
		sys, err := in.setup(ck)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.close()
		if ck.failed.Load() == 0 {
			t.Error("a pass whose output differs from the reference was not counted as failed")
		}
	})
	t.Run("gateway json differs from the direct render", func(t *testing.T) {
		in := prepare(gatewayMix).(*gatewayInputs)
		in.expect[0].json.n++
		ck := &tally{log: io.Discard}
		sys, err := in.setup(ck)
		if err != nil {
			t.Fatal(err)
		}
		defer sys.close()
		if ck.failed.Load() != 1 {
			t.Errorf("%d failures, want exactly the one corrupted document", ck.failed.Load())
		}
	})
	t.Run("pulled diagnostics differ from a from-scratch lint", func(t *testing.T) {
		msgs := []warn.Message{{ID: "img-alt", Line: 3, Text: "IMG has no ALT text"}}
		diags := []lspDiagnostic{{Code: "img-alt", Range: lspRange{Start: lspPosition{Line: 2}}, Message: "IMG has no ALT text"}}
		if !sameDiagnostics(diags, msgs) {
			t.Fatal("identical diagnostics compare unequal")
		}
		diags[0].Range.Start.Line = 3
		if sameDiagnostics(diags, msgs) {
			t.Error("a diagnostic on the wrong line compares equal")
		}
	})
}

// TestBufferKeepsDocumentSteady: the author's edits never delete
// markup, and cutting the pasted blocks on the next jump restores the
// document's size up to what was typed.
func TestBufferKeepsDocumentSteady(t *testing.T) {
	src := "<HTML>\n<BODY>\n<P>one two three</P>\n<UL>\n<LI>item\n</UL>\n</BODY>\n</HTML>\n"
	tags := func(s string) int { return strings.Count(s, "<") }
	b := &buffer{text: []byte(src)}
	b.jump(0.4)
	block := "<P>pasted</P>\n"
	for _, e := range []edit{
		{kind: backspace}, {typeChar, "x"}, {kind: backspace}, {kind: backspace},
		{replaceLine, "new words"}, {paste, block}, {kind: backspace}, {replaceLine, "more words"},
	} {
		before := string(b.text)
		c := b.apply(e)
		after := string(b.text)
		if want := before[:c.span.Start] + c.span.Text + before[c.span.End:]; after != want {
			t.Fatalf("%v: change span does not describe the edit", e)
		}
		if tags(after) < tags(before) {
			t.Fatalf("%v deleted markup: %q -> %q", e, before, after)
		}
	}
	cuts := b.jump(0.9)
	if len(cuts) != 1 || strings.Contains(string(b.text), "pasted") {
		t.Fatalf("jump cut %d blocks, text %q", len(cuts), b.text)
	}
	if tags(string(b.text)) != tags(src) {
		t.Errorf("markup changed: %q", b.text)
	}
}
