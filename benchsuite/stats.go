package main

import (
	"math"
	"slices"
	"time"
)

// dist is a sorted sample of operation latencies.
type dist []time.Duration

func newDist(samples []time.Duration) dist {
	d := slices.Clone(samples)
	slices.Sort(d)
	return d
}

// percentile returns the nearest-rank p-th percentile: the smallest
// sample with at least p percent of the samples at or below it.
func (d dist) percentile(p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	r := int(math.Ceil(p * float64(len(d)) / 100))
	r = max(1, min(r, len(d)))
	return d[r-1]
}

// tailLevels are the percentiles a tail may be reported at.
var tailLevels = []float64{99, 95, 90, 75}

// tail returns the highest of tailLevels that still has at least ten
// samples beyond it, and its level; below 40 samples, the median. A
// run does a fixed amount of work, so a workload's sample count, and
// with it the level, is the same on every run.
func (d dist) tail() (level float64, v time.Duration) {
	for _, p := range tailLevels {
		if len(d)-int(math.Ceil(p*float64(len(d))/100)) >= 10 {
			return p, d.percentile(p)
		}
	}
	return 50, d.percentile(50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
