package repl

import (
	"sync"
	"testing"
	"time"
)

func TestTrackerObserveWait(t *testing.T) {
	tr := NewTracker(2)
	if tr.Attached() {
		t.Fatal("fresh tracker reports attached")
	}
	if tr.Wait([]Position{{Gen: 1, Off: 8}, {Gen: 1, Off: 8}}, 10*time.Millisecond) {
		t.Fatal("Wait succeeded with no follower")
	}

	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr.Observe(0, Position{Gen: 1, Off: 64}, now)
	if !tr.Attached() {
		t.Fatal("tracker not attached after an observation")
	}
	if got, ok := tr.LastPull(); !ok || !got.Equal(now) {
		t.Fatalf("LastPull = %v, %v", got, ok)
	}

	// One shard behind: the barrier must time out.
	if tr.Wait([]Position{{Gen: 1, Off: 64}, {Gen: 1, Off: 8}}, 10*time.Millisecond) {
		t.Fatal("Wait succeeded with shard 1 unobserved")
	}

	// A concurrent pull releases the waiter.
	done := make(chan bool, 1)
	go func() {
		done <- tr.Wait([]Position{{Gen: 1, Off: 64}, {Gen: 2, Off: 8}}, 5*time.Second)
	}()
	time.Sleep(5 * time.Millisecond)
	tr.Observe(1, Position{Gen: 2, Off: 8}, now.Add(time.Second))
	if !<-done {
		t.Fatal("Wait timed out despite the follower catching up")
	}

	// Positions are monotonic: a regressed pull offset (a follower
	// re-bootstrapping) never rolls the durability frontier back.
	tr.Observe(0, Position{Gen: 1, Off: 8}, now.Add(2*time.Second))
	if pos := tr.Positions(); pos[0].Off != 64 {
		t.Fatalf("position regressed to %+v", pos[0])
	}
	// A newer generation always advances, whatever the offset.
	tr.Observe(0, Position{Gen: 3, Off: 8}, now.Add(3*time.Second))
	if pos := tr.Positions(); pos[0].Gen != 3 || pos[0].Off != 8 {
		t.Fatalf("generation advance not taken: %+v", pos[0])
	}
	// Satisfied targets return immediately.
	if !tr.Wait([]Position{{Gen: 3, Off: 8}, {Gen: 2, Off: 8}}, time.Millisecond) {
		t.Fatal("Wait failed on already-reached targets")
	}
}

// The barrier is event-driven: a waiter is released by the Observe that
// reaches its targets, not by its timeout, and an Observe that falls short
// (another shard, a lower offset) leaves it waiting.
func TestTrackerWaitWakesOnObserve(t *testing.T) {
	tr := NewTracker(2)
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	tr.Observe(1, Position{Gen: 1, Off: 8}, now)
	targets := []Position{{Gen: 1, Off: 100}, {Gen: 1, Off: 8}}

	done := make(chan bool, 1)
	go func() { done <- tr.Wait(targets, time.Minute) }()

	tr.Observe(1, Position{Gen: 1, Off: 500}, now) // the other shard
	tr.Observe(0, Position{Gen: 1, Off: 99}, now)  // one byte short
	select {
	case ok := <-done:
		t.Fatalf("Wait returned %v before its targets were reached", ok)
	case <-time.After(20 * time.Millisecond):
	}

	tr.Observe(0, Position{Gen: 1, Off: 100}, now)
	select {
	case ok := <-done:
		if !ok {
			t.Fatal("Wait reported a timeout for targets an Observe reached")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait not released by the Observe that reached its targets; it is waiting out its timer")
	}
}

// A Wait whose timeout lapses must return even when nobody ever observes:
// its deadline is fixed before the wake-up timer is armed, so the timer's
// broadcast always finds the deadline passed and no waiter goes back to
// sleep with no timer left to wake it.
func TestTrackerWaitTimesOutUnobserved(t *testing.T) {
	targets := []Position{{Gen: 1, Off: 8}}
	const waiters, calls = 8, 20000
	done := make(chan struct{})
	go func() {
		var wg sync.WaitGroup
		for g := 0; g < waiters; g++ {
			wg.Add(1)
			// One Tracker per goroutine: a waiter on a shared one could be
			// woken by another waiter's timer and hide a lost wake-up.
			tr := NewTracker(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if tr.Wait(targets, time.Microsecond) {
						t.Error("Wait reached targets nobody observed")
						return
					}
				}
			}()
		}
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Wait calls still blocked 10 s after their 1 µs timeouts")
	}
}
