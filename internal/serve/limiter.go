// Package serve is the gateway's resilient serving layer: admission
// control with backpressure, health/drain signalling, panic-recovery
// middleware, a graceful HTTP server that finishes in-flight requests
// on SIGTERM, and a minimal Prometheus registry. Admission rides the
// same bounded-window discipline as internal/engine — a fixed number
// of lint slots, a deadline-bounded wait queue, and load shed with
// 429 + Retry-After once the queue cannot clear in time — so the
// gateway keeps answering fast under saturation instead of collapsing
// into an unbounded queue.
//
// The layer has one labelled counter type, CounterVec, which carries
// the gateway's response codes and its per-rule finding counts alike,
// and one http.ResponseWriter wrapper, StatusWriter: a request is
// wrapped once, and every layer that needs its status reads the same
// Code.
package serve

import (
	"context"
	"errors"
	"strconv"
	"sync/atomic"
	"time"
)

// ErrSaturated reports that admission timed out: every lint slot was
// busy for the whole admission wait. The caller should shed the
// request with 429 + Retry-After.
var ErrSaturated = errors.New("serve: all lint slots busy; request not admitted")

// Limiter is a bounded lint-concurrency semaphore with a
// deadline-bounded wait queue. Concurrent Acquires beyond the slot
// count wait — briefly, so a short burst rides out a transient spike —
// and are rejected with ErrSaturated once MaxWait passes, converting
// overload into fast, explicit backpressure instead of latency
// collapse.
type Limiter struct {
	slots   chan struct{}
	maxWait time.Duration
	waiting atomic.Int64
}

// NewLimiter returns a Limiter admitting up to slots concurrent
// holders, each Acquire waiting at most maxWait for a free slot
// (0 means reject immediately when saturated).
func NewLimiter(slots int, maxWait time.Duration) *Limiter {
	if slots < 1 {
		slots = 1
	}
	return &Limiter{slots: make(chan struct{}, slots), maxWait: maxWait}
}

// Slots returns the configured concurrency.
func (l *Limiter) Slots() int { return cap(l.slots) }

// InFlight returns how many slots are currently held.
func (l *Limiter) InFlight() int { return len(l.slots) }

// Waiting returns how many Acquires are queued for a slot right now.
func (l *Limiter) Waiting() int { return int(l.waiting.Load()) }

// Acquire claims a slot, waiting up to the limiter's MaxWait (and no
// longer than the context allows). It returns a release function that
// must be called exactly once, or an error: ErrSaturated when the
// wait deadline passed, or the context error when the caller gave up
// first.
func (l *Limiter) Acquire(ctx context.Context) (release func(), err error) {
	// Fast path: a free slot, no queueing.
	select {
	case l.slots <- struct{}{}:
		return l.releaseFunc(), nil
	default:
	}
	if l.maxWait <= 0 {
		return nil, ErrSaturated
	}
	l.waiting.Add(1)
	defer l.waiting.Add(-1)
	t := time.NewTimer(l.maxWait)
	defer t.Stop()
	select {
	case l.slots <- struct{}{}:
		return l.releaseFunc(), nil
	case <-t.C:
		return nil, ErrSaturated
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (l *Limiter) releaseFunc() func() {
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			<-l.slots
		}
	}
}

// RetryAfter suggests a Retry-After value, in whole seconds (at least
// 1), for a request shed with ErrSaturated: the admission wait already
// spent is the best local signal for how long the queue needs.
func (l *Limiter) RetryAfter() string {
	secs := int64((l.maxWait + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
