package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(2, 16)
	defer p.Close()
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		for {
			err := p.Submit(func() {
				defer wg.Done()
				n := cur.Add(1)
				for {
					m := max.Load()
					if n <= m || max.CompareAndSwap(m, n) {
						break
					}
				}
				time.Sleep(2 * time.Millisecond)
				cur.Add(-1)
			})
			if err == nil {
				break
			}
			time.Sleep(time.Millisecond) // backlog full; retry
		}
	}
	wg.Wait()
	if got := max.Load(); got > 2 {
		t.Fatalf("observed %d concurrent tasks, want ≤ 2", got)
	}
}

func TestPoolSaturation(t *testing.T) {
	p := NewPool(1, 1)
	defer p.Close()
	release := make(chan struct{})
	defer close(release) // before Close, which waits for the pinned worker
	running := make(chan struct{})
	if err := p.Submit(func() { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running // worker occupied
	if err := p.Submit(func() {}); err != nil {
		t.Fatalf("backlog submit: %v", err)
	}
	if err := p.Submit(func() {}); !errors.Is(err, ErrSaturated) {
		t.Fatalf("want ErrSaturated with full backlog, got %v", err)
	}
	workers, busy, queued := p.Stats()
	if workers != 1 || busy != 1 || queued != 1 {
		t.Fatalf("Stats() = (%d, %d, %d), want (1, 1, 1)", workers, busy, queued)
	}
}

func TestPoolDoCancellation(t *testing.T) {
	p := NewPool(1, 4)
	defer p.Close()
	release := make(chan struct{})
	unblock := sync.OnceFunc(func() { close(release) })
	defer unblock() // before Close, which waits for the pinned worker
	running := make(chan struct{})
	if err := p.Submit(func() { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := make(chan struct{})
	if err := p.Do(ctx, func() { close(ran) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	unblock()
	select {
	case <-ran: // abandoned task still runs to completion
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned task never ran")
	}
}

func TestPoolCloseRejectsAndIsIdempotent(t *testing.T) {
	p := NewPool(2, 2)
	p.Close()
	p.Close()
	if err := p.Submit(func() {}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: want ErrClosed, got %v", err)
	}
}

// TestCloseDrainsAndFailsBacklog is the regression for the shutdown task
// leak: queued tasks used to be dropped on Close, stranding async jobs in
// "queued" forever. Now every accepted task either runs or is aborted with
// ErrClosed — exactly once.
func TestCloseDrainsAndFailsBacklog(t *testing.T) {
	p := NewPool(1, 8)
	release := make(chan struct{})
	running := make(chan struct{})
	if err := p.Submit(func() { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running // the only worker is pinned

	const queued = 6
	var ran, aborted atomic.Int64
	var wrongErr atomic.Int64
	for i := 0; i < queued; i++ {
		err := p.SubmitTask(
			func() { ran.Add(1) },
			func(e error) {
				if !errors.Is(e, ErrClosed) {
					wrongErr.Add(1)
				}
				aborted.Add(1)
			},
		)
		if err != nil {
			t.Fatal(err)
		}
	}

	closed := make(chan struct{})
	go func() { p.Close(); close(closed) }()
	close(release) // let the pinned worker finish so Close can complete
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned")
	}
	// Each queued task was either run by the worker before it observed the
	// shutdown or aborted by the drain — never both, never neither.
	if got := ran.Load() + aborted.Load(); got != queued {
		t.Fatalf("ran %d + aborted %d = %d, want %d", ran.Load(), aborted.Load(), got, queued)
	}
	if wrongErr.Load() != 0 {
		t.Fatal("abort delivered a non-ErrClosed error")
	}
}

// TestDoSurvivesCloseWithNonCancellableContext: a Do waiter whose task is
// still queued at Close time must return ErrClosed (or nil if the worker
// got to it first) — with the old drop-the-backlog Close it hung forever on
// context.Background().
func TestDoSurvivesCloseWithNonCancellableContext(t *testing.T) {
	p := NewPool(1, 4)
	release := make(chan struct{})
	running := make(chan struct{})
	if err := p.Submit(func() { close(running); <-release }); err != nil {
		t.Fatal(err)
	}
	<-running

	done := make(chan error, 1)
	go func() { done <- p.Do(context.Background(), func() {}) }()
	// Wait until the Do task is actually queued so Close has something to
	// drain.
	for {
		if _, _, queued := p.Stats(); queued > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	go func() { close(release) }()
	p.Close()
	select {
	case err := <-done:
		if err != nil && !errors.Is(err, ErrClosed) {
			t.Fatalf("Do returned %v, want nil or ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Do hung across Close with a non-cancellable context")
	}
}

// TestSubmitCloseRace hammers the Submit/Close interleaving under -race:
// no accepted task may be lost (the old check-then-act race could enqueue
// after the drain and never run or abort it).
func TestSubmitCloseRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		p := NewPool(2, 16)
		var accepted, resolved atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 8; i++ {
					err := p.SubmitTask(
						func() { resolved.Add(1) },
						func(error) { resolved.Add(1) },
					)
					if err == nil {
						accepted.Add(1)
					}
				}
			}()
		}
		p.Close()
		wg.Wait()
		p.Close() // second drain catches tasks accepted concurrently with the first Close
		if accepted.Load() != resolved.Load() {
			t.Fatalf("iter %d: accepted %d tasks but resolved %d", iter, accepted.Load(), resolved.Load())
		}
	}
}
