// Package repl is the journal-shipping replication plane. A primary node
// exposes its per-shard journals over the wire protocol's replication
// opcode (the fabric implements wire.ReplSource over journal stores); a
// Follower mirrors those journals file-by-file into a directory that is a
// valid fabric persist directory at every durable instant, so promotion is
// nothing but opening the mirrored directory with the standard recovery
// path. The Tracker lives on the primary and turns the follower's pull
// offsets — a pull doubles as a durability acknowledgement, because the
// follower only requests bytes past what it has already fsynced — into
// the sync barrier the wire server applies to mutating acknowledgements.
package repl

import (
	"sync"
	"time"
)

// Position is a follower's durable watermark in one shard's journal:
// bytes [journal.HeaderSize, Off) of WAL generation Gen are on the
// follower's disk.
type Position struct {
	Gen uint64
	Off int64
}

// reaches reports whether a follower at p durably covers target t.
func (p Position) reaches(t Position) bool {
	return p.Gen > t.Gen || (p.Gen == t.Gen && p.Off >= t.Off)
}

// Tracker records follower durability watermarks on the primary and lets
// the wire server's ack barrier wait on them.
type Tracker struct {
	mu       sync.Mutex
	cond     *sync.Cond
	pos      []Position
	attached bool
	lastPull time.Time
}

// NewTracker sizes the tracker for a fabric of shards journals.
func NewTracker(shards int) *Tracker {
	t := &Tracker{pos: make([]Position, shards)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// Observe records a follower pull for shard: the follower durably holds
// p. Watermarks are monotonic; a bootstrap restart that moves backwards
// (new generation, lower offset) still advances because generations are
// monotonic on the primary.
func (t *Tracker) Observe(shard int, p Position, now time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if shard < 0 || shard >= len(t.pos) {
		return
	}
	t.attached = true
	t.lastPull = now
	if p.reaches(t.pos[shard]) {
		t.pos[shard] = p
		t.cond.Broadcast()
	}
}

// Attached reports whether any follower has ever pulled.
func (t *Tracker) Attached() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attached
}

// LastPull returns the time of the most recent follower pull.
func (t *Tracker) LastPull() (time.Time, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastPull, t.attached
}

// Positions returns a copy of the per-shard durable watermarks.
func (t *Tracker) Positions() []Position {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Position(nil), t.pos...)
}

// Wait blocks until the follower's watermarks reach targets on every
// shard, or the timeout lapses. It returns true when the targets were
// reached (the mutating ack may claim follower durability) and false on
// timeout (the ack is released anyway; the caller counts the degradation).
func (t *Tracker) Wait(targets []Position, timeout time.Duration) bool {
	// The deadline is fixed before the timer is armed, so the timer fires
	// no earlier than the deadline and its broadcast always finds it passed.
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() {
		t.mu.Lock()
		t.cond.Broadcast()
		t.mu.Unlock()
	})
	defer timer.Stop()
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		ok := true
		for i, target := range targets {
			if i >= len(t.pos) || !t.pos[i].reaches(target) {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
		if !time.Now().Before(deadline) {
			return false
		}
		t.cond.Wait()
	}
}
