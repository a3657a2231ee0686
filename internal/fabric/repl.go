package fabric

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/repl"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// The primary side of journal-shipping replication. The fabric implements
// wire.ReplSource and wire.SnapshotSource, so a wire.Server fronting it
// serves follower pulls and router snapshot fetches without new plumbing;
// EnableReplication additionally arms the ack barrier the wire server
// applies to mutating frames, turning a follower's pull offsets — which
// acknowledge exactly the bytes it has fsynced — into synchronous
// replication for acked ops.

// replPlane is the per-fabric replication state (armed by
// EnableReplication).
type replPlane struct {
	tracker *repl.Tracker
	timeout time.Duration

	shipped     atomic.Uint64
	degraded    atomic.Uint64
	lastMatched []atomic.Int64 // unix nanos a follower last matched shard's durable frontier
	attachedAt  atomic.Int64
}

// DefaultBarrierTimeout bounds how long a mutating ack waits for follower
// durability before it is released degraded.
const DefaultBarrierTimeout = 5 * time.Second

// replParkTimeout bounds how long a caught-up follower pull is held open.
// Data never waits on it — any shard's journal change answers a parked
// pull at once — so it only paces an idle follower's round of pulls, and
// with it how stale an idle follower's view of the primary can get.
const replParkTimeout = 100 * time.Millisecond

// pullSeen is the primary's record of the last pull served for one shard.
type pullSeen struct {
	// ch is the journal signal's Wait channel taken just before the pull
	// was read, kept only when the answer was idle; nil means the follower
	// still has work on the shard (a chunk to acknowledge, a bootstrap to
	// apply). Once ch closes, some shard has news.
	ch <-chan struct{}
	// matched: that idle answer found the follower at the live
	// generation's durable frontier with the retained log mirrored.
	matched bool
}

// EnableReplication arms the replication plane: follower pulls start
// counting as durability acknowledgements and ReplBarrier() waits on
// them. Requires the journal engine (OpenPersist first).
func (f *Fabric) EnableReplication(barrierTimeout time.Duration) error {
	if f.persist.Load() == nil {
		return errors.New("fabric: replication requires the journal engine")
	}
	if barrierTimeout <= 0 {
		barrierTimeout = DefaultBarrierTimeout
	}
	rp := &replPlane{
		tracker:     repl.NewTracker(len(f.shards)),
		timeout:     barrierTimeout,
		lastMatched: make([]atomic.Int64, len(f.shards)),
	}
	if !f.repl.CompareAndSwap(nil, rp) {
		return errors.New("fabric: replication already enabled")
	}
	return nil
}

// ReplTracker exposes the follower-durability tracker (nil until
// EnableReplication), for tests and operator surfaces.
func (f *Fabric) ReplTracker() *repl.Tracker {
	if rp := f.repl.Load(); rp != nil {
		return rp.tracker
	}
	return nil
}

// ReplDegraded counts mutating acks released by barrier timeout instead
// of follower durability.
func (f *Fabric) ReplDegraded() uint64 {
	if rp := f.repl.Load(); rp != nil {
		return rp.degraded.Load()
	}
	return 0
}

// ReplBarrier returns the ack barrier for a wire.Server fronting this
// fabric: it blocks until the attached follower durably holds every op
// journaled so far, or the configured timeout lapses (counted as a
// degraded ack). Followers ship only fsynced bytes, so the barrier first
// kicks the group commit of every shard with unsynced appends rather than
// waiting for its tick; the parked follower pull wakes on that fsync. A
// barrier therefore costs the primary's fsync, a pull round trip, the
// follower's fsync and the acknowledging pull — no timer period. With no
// follower attached — or replication not enabled — it is a no-op, so a
// standalone node pays nothing.
func (f *Fabric) ReplBarrier() func() {
	return func() {
		rp := f.repl.Load()
		if rp == nil || !rp.tracker.Attached() {
			return
		}
		p := f.persist.Load()
		if p == nil {
			return
		}
		targets := make([]repl.Position, len(f.shards))
		for i := range f.shards {
			p.mu.Lock()
			st := p.stores[i]
			p.mu.Unlock()
			if st == nil {
				return // fenced mid-restore; durability is suspended anyway
			}
			rs := st.ReplState()
			if rs.Durable < rs.Appended {
				st.Kick()
			}
			targets[i] = repl.Position{Gen: rs.Cur, Off: rs.Appended}
		}
		if !rp.tracker.Wait(targets, rp.timeout) {
			rp.degraded.Add(1)
		}
	}
}

// SnapshotBytes implements wire.SnapshotSource: the merged fabric state
// in the snapshot codec (what /api/snapshot serves).
func (f *Fabric) SnapshotBytes() ([]byte, error) { return f.Snapshot() }

// ReplRead implements wire.ReplSource: serve one replication pull against
// shard req.Shard. The request's offsets double as the follower's
// durability acknowledgement. Position anomalies — a compacted-away
// generation, an offset past the durable frontier, a stale retained
// epoch — never surface as errors; they resolve to bootstrap or reset
// chunks so the follower always has a next move.
//
// A pull that would be answered idle (caught up, or the old generation
// fully mirrored while a compaction commits) is parked instead, until any
// shard has news, stop closes, or replParkTimeout passes; if it woke on
// news it is read again, so a change on its own shard ships in this very
// reply. Waking on any shard, not only the requested one, keeps the
// follower's shard-by-shard walk from stalling behind an idle shard. The
// follower never sleeps between pulls: the primary does the waiting.
func (f *Fabric) ReplRead(req wire.ReplPullRequest, stop <-chan struct{}) (wire.ReplChunk, error) {
	p := f.persist.Load()
	if p == nil {
		return wire.ReplChunk{}, errors.New("fabric: replication requires the journal engine")
	}
	if req.Shard < 0 || req.Shard >= len(f.shards) {
		return wire.ReplChunk{}, fmt.Errorf("fabric: no shard %d", req.Shard)
	}
	p.mu.Lock()
	st := p.stores[req.Shard]
	p.mu.Unlock()
	if st == nil {
		return wire.ReplChunk{}, errors.New("fabric: shard store detached")
	}
	n := len(f.shards)
	rp := f.repl.Load()
	if rp != nil {
		rp.attachedAt.CompareAndSwap(0, f.now().UnixNano())
		if req.Gen != 0 {
			rp.tracker.Observe(req.Shard, repl.Position{Gen: req.Gen, Off: req.WALOff}, f.now())
		}
	}
	for parked := false; ; parked = true {
		news := p.sig.Wait() // before the read: a later change is not missed
		ch, matched, err := f.replChunk(st, req, n, rp)
		if err != nil {
			return ch, err
		}
		idle := ch.Action == wire.ReplIdle
		p.notePull(req.Shard, pullSeen{ch: news, matched: matched}, idle)
		if !idle || parked || !f.replPark(p, rp, stop) {
			return ch, nil
		}
	}
}

// replChunk computes the answer to one pull; matched reports an idle
// answer that found the follower fully caught up on the live generation.
func (f *Fabric) replChunk(st *journal.Store, req wire.ReplPullRequest, n int, rp *replPlane) (ch wire.ReplChunk, matched bool, err error) {
	if req.Gen == 0 {
		ch, err = f.replBootstrap(st, n, rp)
		return ch, false, err
	}
	max := req.Max
	if max <= 0 || max > wire.MaxFrame/2 {
		max = 1 << 20
	}
	data, durable, cur, err := st.ReadWALChunk(req.Gen, req.WALOff, max)
	if errors.Is(err, journal.ErrReplReset) {
		ch, err = f.replBootstrap(st, n, rp)
		return ch, false, err
	}
	if err != nil {
		return wire.ReplChunk{}, false, err
	}
	rs := st.ReplState()
	if len(data) > 0 {
		if rp != nil {
			rp.shipped.Add(uint64(len(data)))
		}
		appended := durable
		if req.Gen == cur {
			appended = rs.Appended
		}
		return wire.ReplChunk{
			Action: wire.ReplWAL, Shards: n, Gen: req.Gen,
			Durable: durable, Appended: appended,
			RetSize: rs.RetainedSize, RetEpoch: rs.RetainedEpoch,
			Data: data,
		}, false, nil
	}
	if req.Gen < rs.Cur {
		// The old generation is fully mirrored; the follower idles until
		// the rotation commits (deleting it) and the next pull bootstraps
		// onto the fresh snapshot.
		return wire.ReplChunk{Action: wire.ReplIdle, Shards: n, Gen: req.Gen, Durable: durable, Appended: durable}, false, nil
	}
	// WAL caught up on the live generation; ship the retained tally log.
	if req.RetEpoch != rs.RetainedEpoch {
		return wire.ReplChunk{Action: wire.ReplRetReset, Shards: n, Gen: req.Gen,
			Durable: rs.Durable, Appended: rs.Appended, RetEpoch: rs.RetainedEpoch}, false, nil
	}
	rdata, rsize, repoch, err := st.ReadRetainedChunk(req.RetOff, max)
	if err != nil {
		return wire.ReplChunk{}, false, err
	}
	if repoch != req.RetEpoch {
		return wire.ReplChunk{Action: wire.ReplRetReset, Shards: n, Gen: req.Gen,
			Durable: rs.Durable, Appended: rs.Appended, RetEpoch: repoch}, false, nil
	}
	if len(rdata) > 0 {
		if rp != nil {
			rp.shipped.Add(uint64(len(rdata)))
		}
		return wire.ReplChunk{Action: wire.ReplRetained, Shards: n, Gen: req.Gen,
			Durable: rs.Durable, Appended: rs.Appended,
			RetSize: rsize, RetEpoch: repoch, Data: rdata}, false, nil
	}
	// Fully caught up: WAL durable frontier and retained log both mirrored.
	matched = req.WALOff >= rs.Durable
	if rp != nil && matched {
		rp.lastMatched[req.Shard].Store(f.now().UnixNano())
	}
	return wire.ReplChunk{Action: wire.ReplIdle, Shards: n, Gen: req.Gen,
		Durable: rs.Durable, Appended: rs.Appended,
		RetSize: rsize, RetEpoch: repoch}, matched, nil
}

// notePull records the answer just served for shard (see pullSeen).
func (p *persistState) notePull(shard int, seen pullSeen, idle bool) {
	if !idle {
		seen = pullSeen{}
	}
	p.mu.Lock()
	if p.pulls == nil {
		p.pulls = make([]pullSeen, len(p.stores))
	}
	p.pulls[shard] = seen
	p.mu.Unlock()
}

// replPark holds a caught-up pull until some shard has news for the
// follower, reporting whether it did (false: the deadline passed or stop
// closed). There is news while any shard's last pull was not answered
// idle, or once the journal signal fires. The wait runs under no lock, on
// a signal channel taken before the check, so a change racing the check
// still ends the wait.
func (f *Fabric) replPark(p *persistState, rp *replPlane, stop <-chan struct{}) bool {
	news := p.sig.Wait()
	matched := true
	p.mu.Lock()
	for _, seen := range p.pulls {
		if seen.ch != news {
			p.mu.Unlock()
			return true
		}
		matched = matched && seen.matched
	}
	p.mu.Unlock()
	if rp != nil && matched {
		// The follower holds every shard's durable frontier right now.
		now := f.now().UnixNano()
		for i := range rp.lastMatched {
			rp.lastMatched[i].Store(now)
		}
	}
	timer := time.NewTimer(replParkTimeout)
	defer timer.Stop()
	select {
	case <-news:
		return true
	case <-stop:
	case <-timer.C:
	}
	return false
}

// replBootstrap packages a full re-seed for one shard: snapshot bytes,
// retained log, and the generation the follower should mirror from.
func (f *Fabric) replBootstrap(st *journal.Store, n int, rp *replPlane) (wire.ReplChunk, error) {
	base, snap, retained, epoch, err := st.BootstrapData()
	if err != nil {
		return wire.ReplChunk{}, err
	}
	if rp != nil {
		rp.shipped.Add(uint64(len(snap) + len(retained)))
	}
	rs := st.ReplState()
	return wire.ReplChunk{
		Action: wire.ReplBootstrap, Shards: n, Gen: base,
		Durable: rs.Durable, Appended: rs.Appended,
		RetSize: rs.RetainedSize, RetEpoch: epoch,
		Data: snap, Data2: retained,
	}, nil
}

// replSnapshot builds the metrics-page replication section, or nil when
// replication is not enabled.
func (f *Fabric) replSnapshot() *server.ReplSnapshot {
	rp := f.repl.Load()
	if rp == nil {
		return nil
	}
	out := &server.ReplSnapshot{
		FollowerAttached: rp.tracker.Attached(),
		ShippedBytes:     rp.shipped.Load(),
		SyncDegraded:     rp.degraded.Load(),
	}
	out.LagMS = f.replLagMS(rp)
	if p := f.persist.Load(); p != nil && out.FollowerAttached {
		pos := rp.tracker.Positions()
		for i := range f.shards {
			p.mu.Lock()
			st := p.stores[i]
			p.mu.Unlock()
			if st == nil {
				continue
			}
			rs := st.ReplState()
			switch {
			case pos[i].Gen == rs.Cur && rs.Durable > pos[i].Off:
				out.LagBytes += float64(rs.Durable - pos[i].Off)
			case pos[i].Gen != rs.Cur:
				out.LagBytes += float64(rs.Durable - journal.HeaderSize)
			}
		}
	}
	return out
}

// replLagMS measures how stale the follower is: milliseconds since every
// shard last matched the primary's durable frontier (0 when a pull is
// matching right now, growing while writes outpace pulls).
func (f *Fabric) replLagMS(rp *replPlane) float64 {
	if !rp.tracker.Attached() {
		return 0
	}
	oldest := int64(0)
	for i := range rp.lastMatched {
		ns := rp.lastMatched[i].Load()
		if ns == 0 {
			ns = rp.attachedAt.Load()
		}
		if oldest == 0 || ns < oldest {
			oldest = ns
		}
	}
	if oldest == 0 {
		return 0
	}
	lag := f.now().Sub(time.Unix(0, oldest))
	if lag < 0 {
		return 0
	}
	return float64(lag.Milliseconds())
}
