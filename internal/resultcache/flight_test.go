package resultcache

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"weblint/internal/warn"
)

func TestDoCollapsesConcurrentCallers(t *testing.T) {
	g := NewGroup()
	k := KeyOf("fp", []byte("doc"))
	res := stream([]warn.Message{msg("rule", "finding")}, nil)

	var calls atomic.Int64
	gate := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once

	const callers = 64
	var shared atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, wasShared, err := g.Do(context.Background(), k, func() (*warn.Recorder, error) {
				calls.Add(1)
				once.Do(func() { close(started) })
				<-gate
				return res, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			if r != res {
				t.Error("caller got a different result")
			}
			if wasShared {
				shared.Add(1)
			}
		}()
	}
	<-started
	// Give followers a beat to pile onto the flight before releasing.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	wg.Wait()

	if c := calls.Load(); c < 1 || c > 3 {
		// Exactly-one needs every follower to arrive before the leader
		// finishes; the sleep makes that overwhelmingly likely, but a
		// slow-start goroutine may legitimately start a second flight.
		t.Fatalf("fn ran %d times for %d concurrent callers", c, callers)
	}
	if s := shared.Load(); s < callers-3 {
		t.Fatalf("only %d of %d callers were coalesced", s, callers)
	}
}

func TestDoSharesLeaderError(t *testing.T) {
	g := NewGroup()
	k := KeyOf("fp", []byte("doc"))
	boom := errors.New("lint budget exceeded")

	gate := make(chan struct{})
	started := make(chan struct{})
	go g.Do(context.Background(), k, func() (*warn.Recorder, error) {
		close(started)
		<-gate
		return nil, boom
	})
	<-started

	errc := make(chan error, 1)
	go func() {
		_, shared, err := g.Do(context.Background(), k, func() (*warn.Recorder, error) {
			t.Error("follower ran fn despite an active flight")
			return nil, nil
		})
		if !shared {
			t.Error("follower not marked shared")
		}
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(gate)
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("follower got %v, want the leader's error", err)
	}
}

func TestDoFollowerOwnCancellation(t *testing.T) {
	g := NewGroup()
	k := KeyOf("fp", []byte("doc"))
	gate := make(chan struct{})
	started := make(chan struct{})
	defer close(gate)
	go g.Do(context.Background(), k, func() (*warn.Recorder, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := g.Do(ctx, k, func() (*warn.Recorder, error) { return nil, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower got %v, want context.Canceled", err)
	}
}

// TestDoLeaderCancelPromotesFollower: a leader whose own client hung
// up must not poison the queue behind it — a waiting follower loops
// around, becomes the new leader, and completes the work.
func TestDoLeaderCancelPromotesFollower(t *testing.T) {
	g := NewGroup()
	k := KeyOf("fp", []byte("doc"))
	res := &warn.Recorder{}

	gate := make(chan struct{})
	started := make(chan struct{})
	go g.Do(context.Background(), k, func() (*warn.Recorder, error) {
		close(started)
		<-gate
		return nil, context.Canceled
	})
	<-started

	done := make(chan struct{})
	go func() {
		defer close(done)
		r, _, err := g.Do(context.Background(), k, func() (*warn.Recorder, error) {
			return res, nil
		})
		if err != nil {
			t.Errorf("promoted follower: %v", err)
		}
		if r != res {
			t.Error("promoted follower got the wrong result")
		}
	}()
	time.Sleep(5 * time.Millisecond)
	close(gate)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never promoted after leader cancellation")
	}
}

func TestDoDistinctKeysDoNotCollapse(t *testing.T) {
	g := NewGroup()
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := KeyOf("fp", []byte{byte(i)})
			g.Do(context.Background(), k, func() (*warn.Recorder, error) {
				calls.Add(1)
				time.Sleep(5 * time.Millisecond)
				return nil, nil
			})
		}(i)
	}
	wg.Wait()
	if calls.Load() != 4 {
		t.Fatalf("distinct keys ran fn %d times, want 4", calls.Load())
	}
}

// TestDoLeaderPanicRetiresFlight: a leader whose fn panics must still
// retire its flight. The panic reaches the leader's own caller, a
// waiter fails with ErrLeaderPanicked instead of hanging, and the next
// call for the key runs fn afresh.
func TestDoLeaderPanicRetiresFlight(t *testing.T) {
	g := NewGroup()
	k := KeyOf("fp", []byte("doc"))
	gate := make(chan struct{})
	started := make(chan struct{})
	leaderPanic := make(chan any, 1)
	go func() {
		defer func() { leaderPanic <- recover() }()
		g.Do(context.Background(), k, func() (*warn.Recorder, error) {
			close(started)
			<-gate
			panic("check exploded")
		})
	}()
	<-started

	errc := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), k, func() (*warn.Recorder, error) {
			return &warn.Recorder{}, nil // reached only if the flight retired first
		})
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(gate)
	if p := <-leaderPanic; p == nil {
		t.Fatal("the leader's panic did not reach its caller")
	}
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, ErrLeaderPanicked) {
			t.Fatalf("waiter got %v, want ErrLeaderPanicked", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter hung on a panicked flight")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	res, shared, err := g.Do(ctx, k, func() (*warn.Recorder, error) { return &warn.Recorder{}, nil })
	if err != nil || shared || res == nil {
		t.Fatalf("call after the panic: res=%v shared=%v err=%v, want a fresh run", res, shared, err)
	}
}
