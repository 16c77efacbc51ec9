package resultcache

import (
	"context"
	"errors"
	"sync"

	"weblint/internal/warn"
)

// Group collapses concurrent duplicate work: when N submissions with
// the same Key arrive together, one caller (the leader) runs the
// computation — paying one admission slot, one lint — and the rest
// wait for its result. This is what makes a thundering herd of
// identical CI submissions cost one slot in the gateway's limiter
// instead of N.
//
// Cancellation is per-caller: a follower whose own context dies stops
// waiting and returns its context's error without disturbing the
// flight. If the *leader* is cancelled (its client hung up), its
// context error is not inherited by followers — the flight is retired
// and a waiting follower loops around to become the new leader, so one
// impatient client cannot poison everyone behind it. Non-cancellation
// leader errors (saturation, lint budget, faults) are shared: every
// waiter fails the same way, which is exactly what would have happened
// had they each run alone, minus the duplicate work. A leader whose fn
// panics retires its flight on the way out, and its waiters fail with
// ErrLeaderPanicked: one crashing check never strands the key.
type Group struct {
	mu      sync.Mutex
	flights map[Key]*flight
}

type flight struct {
	done chan struct{}
	res  *warn.Recorder
	err  error
}

// ErrLeaderPanicked is what waiters receive when the leader's fn
// panicked. The panic itself continues up the leader's own stack.
var ErrLeaderPanicked = errors.New("resultcache: the shared check panicked")

// NewGroup returns an empty singleflight group.
func NewGroup() *Group {
	return &Group{flights: make(map[Key]*flight)}
}

// Do returns the result of fn for key, collapsing concurrent calls:
// at most one fn runs per key at a time. shared reports whether this
// caller received a leader's outcome rather than running fn itself —
// the gateway surfaces it as X-Weblint-Cache: coalesced.
//
// fn must honour ctx; Do does not interrupt a running fn.
func (g *Group) Do(ctx context.Context, key Key, fn func() (*warn.Recorder, error)) (res *warn.Recorder, shared bool, err error) {
	for {
		g.mu.Lock()
		if f := g.flights[key]; f != nil {
			g.mu.Unlock()
			select {
			case <-f.done:
			case <-ctx.Done():
				return nil, true, ctx.Err()
			}
			if f.err != nil && errors.Is(f.err, context.Canceled) {
				// The leader's client hung up; its cancellation is not
				// ours. Loop: either a new flight exists to join, or
				// this caller becomes the leader.
				continue
			}
			return f.res, true, f.err
		}
		f := &flight{done: make(chan struct{})}
		g.flights[key] = f
		g.mu.Unlock()
		g.lead(key, f, fn)
		return f.res, false, f.err
	}
}

// lead runs fn as key's leader and retires the flight however fn ends.
// f.err reads ErrLeaderPanicked until fn returns, so a panic leaves
// exactly that for the waiters the deferred retirement wakes.
func (g *Group) lead(key Key, f *flight, fn func() (*warn.Recorder, error)) {
	f.err = ErrLeaderPanicked
	defer func() {
		g.mu.Lock()
		delete(g.flights, key)
		g.mu.Unlock()
		close(f.done)
	}()
	f.res, f.err = fn()
}
