package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The machines this benchmark runs on are shared, and their speed
// drifts by tens of percent over tens of seconds, far more than the
// regressions the bounds must catch. So every run interleaves its
// measurement with short slices of a calibration loop, a fixed
// workload of the benchmark's own, and reports times scaled to the
// speed the loop has on a nominal machine. Raw values are printed
// beside the scaled ones.
//
// The loop scans a fixed HTML-like text for tags and looks each
// lower-cased name up in a map, the kind of work a linter does, on
// every core. It allocates nothing, so its speed does not depend on
// how much garbage the program under test leaves to collect. It runs
// only once the program is quiet (see quiesce): no operation in
// flight, the system's own follow-up work finished, and no collection
// in progress. A change to the program therefore cannot take CPU from
// the loop and so make the scaled times look shorter.

// calibrationNominal is the loop's rate, in scans per second, on the
// machine the bounds were set on: 2 vCPUs, go1.24.
const calibrationNominal = 15000.0

var calibrationText = func() []byte {
	r := rand.New(rand.NewSource(7))
	words := []string{"web", "lint", "page", "markup", "anchor", "table", "style", "check"}
	var b []byte
	for len(b) < 64<<10 {
		b = fmt.Appendf(b, "<P CLASS=\"c%d\">%s %s <A HREF=\"x%d.html\">%s</A> &amp; %s</P>\n",
			r.Intn(9), words[r.Intn(8)], words[r.Intn(8)], r.Intn(99), words[r.Intn(8)], words[r.Intn(8)])
	}
	return b
}()

var calibrationNames = map[string]int{"p": 1, "a": 2, "table": 3, "td": 4}

// calibrationFound keeps the loop's results live, so the compiler
// cannot drop the work.
var calibrationFound atomic.Int64

// scan is one unit of calibration work.
func scan() int {
	var name [16]byte
	n := 0
	text := calibrationText
	for i := 0; i < len(text); i++ {
		if text[i] != '<' {
			continue
		}
		j, k := i+1, 0
		if j < len(text) && text[j] == '/' {
			j++
		}
		for ; j < len(text) && k < len(name) && text[j] != ' ' && text[j] != '>'; j++ {
			c := text[j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			name[k] = c
			k++
		}
		n += calibrationNames[string(name[:k])]
	}
	return n
}

// calibration runs the loop between stretches of measurement.
type calibration struct {
	last float64 // the speed the latest run measured
}

// run runs the loop on every core for d and returns the machine's speed
// during it relative to the nominal machine: above 1 when it ran
// faster. A time scales to the nominal machine multiplied by the
// speed, a rate divided by it.
func (c *calibration) run(d time.Duration) float64 {
	var scans atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k, found := int64(0), 0
			for time.Since(t0) < d {
				found += scan()
				k++
			}
			scans.Add(k)
			calibrationFound.Add(int64(found))
		}()
	}
	wg.Wait()
	c.last = float64(scans.Load()) / time.Since(t0).Seconds() / calibrationNominal
	return c.last
}

// around runs f between two calibration runs and returns the speed the
// machine had around it: the mean of the run before (the latest one)
// and a new one after.
func (c *calibration) around(d time.Duration, f func()) float64 {
	before := c.last
	f()
	return (before + c.run(d)) / 2
}
