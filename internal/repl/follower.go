package repl

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/retry"
	"github.com/clamshell/clamshell/internal/wire"
)

// FollowerConfig configures a journal-shipping follower.
type FollowerConfig struct {
	// Addr is the primary's wire address.
	Addr string
	// Dir is the local mirror directory (created if missing). At every
	// durable instant it is a valid fabric persist directory: promotion is
	// opening it with the standard recovery path.
	Dir string
	// Dial overrides the transport (fault injection, tests). Nil dials TCP.
	Dial func(addr string) (net.Conn, error)
	// Retry governs reconnects and failed pulls (default retry.DefaultPolicy
	// with no attempt cap: a follower never gives up on its primary).
	Retry retry.Policy
	// MaxChunk bounds one pull's payload (default 1 MiB).
	MaxChunk int
}

// mirror is one shard's replication cursor plus its open WAL handle.
type mirror struct {
	gen      uint64
	walOff   int64
	retOff   int64
	retEpoch uint64
	wal      *os.File
}

// Follower pulls a primary's per-shard journals into a local mirror.
// The pull loop runs on one goroutine; every write is fsynced before the
// cursor advances, so the next pull's offsets acknowledge exactly what
// this follower would recover after a crash. The loop never sleeps: a
// caught-up pull is held open by the primary until there is something to
// ship, so new journal bytes travel one round trip after their fsync.
type Follower struct {
	cfg FollowerConfig

	mu      sync.Mutex
	cl      *wire.Client
	mirrors []mirror

	lagBytes    atomic.Int64
	pulledBytes atomic.Uint64
	bootstraps  atomic.Uint64
	reconnects  atomic.Uint64
	attached    atomic.Bool
	lastPullNs  atomic.Int64

	stop chan struct{}
	done chan struct{}
}

// fabricManifest mirrors internal/fabric's persist-directory manifest
// (declared locally: the dependency runs fabric -> repl, never back).
type fabricManifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// NewFollower validates cfg and prepares a follower (Run starts it).
func NewFollower(cfg FollowerConfig) (*Follower, error) {
	if cfg.Addr == "" {
		return nil, errors.New("repl: follower needs a primary address")
	}
	if cfg.Dir == "" {
		return nil, errors.New("repl: follower needs a mirror directory")
	}
	if cfg.Dial == nil {
		cfg.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if cfg.Retry.Base == 0 {
		cfg.Retry = retry.DefaultPolicy()
	}
	// A follower outlives any single outage: retry forever, bounded only
	// by Stop.
	cfg.Retry.MaxAttempts = 0
	cfg.Retry.Deadline = 0
	if cfg.MaxChunk <= 0 {
		cfg.MaxChunk = 1 << 20
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	return &Follower{
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}, nil
}

// Run pulls until Stop. It always returns nil after a clean Stop;
// transport errors are retried forever under the configured policy.
func (f *Follower) Run() error {
	defer close(f.done)
	defer f.closeConn()
	for {
		select {
		case <-f.stop:
			return nil
		default:
		}
		if err := f.pullRound(); err != nil {
			if errors.Is(err, retry.ErrStopped) {
				return nil
			}
			// pullRound already retried under the policy; a surviving error
			// is a mirror-side disk fault. Surface it.
			return err
		}
	}
}

// Stop halts the pull loop and closes the mirror's file handles. After
// Stop returns, Dir is quiescent and ready for promotion. A pull the
// primary is holding open is aborted by closing the connection.
func (f *Follower) Stop() {
	f.mu.Lock()
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.mu.Unlock()
	f.closeConn()
	<-f.done
	f.mu.Lock()
	for i := range f.mirrors {
		if f.mirrors[i].wal != nil {
			f.mirrors[i].wal.Close()
			f.mirrors[i].wal = nil
		}
	}
	f.mu.Unlock()
}

// Dir returns the mirror directory (the promotion target).
func (f *Follower) Dir() string { return f.cfg.Dir }

// Shards returns the discovered shard count (0 before the first pull).
func (f *Follower) Shards() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.mirrors)
}

// LagBytes is the primary-reported durable bytes this follower has not
// yet mirrored (as of the latest pulls).
func (f *Follower) LagBytes() int64 { return f.lagBytes.Load() }

// PulledBytes counts journal payload bytes mirrored so far.
func (f *Follower) PulledBytes() uint64 { return f.pulledBytes.Load() }

// Bootstraps counts full re-seeds (initial attach, compaction resets,
// position anomalies).
func (f *Follower) Bootstraps() uint64 { return f.bootstraps.Load() }

// Reconnects counts primary connections re-dialed after an error.
func (f *Follower) Reconnects() uint64 { return f.reconnects.Load() }

// Attached reports whether at least one pull has succeeded.
func (f *Follower) Attached() bool { return f.attached.Load() }

// LastPull returns the wall-clock time of the last successful pull.
func (f *Follower) LastPull() time.Time {
	ns := f.lastPullNs.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

func (f *Follower) closeConn() {
	f.mu.Lock()
	if f.cl != nil {
		f.cl.Close()
		f.cl = nil
	}
	f.mu.Unlock()
}

// client returns the live primary connection, dialing under the retry
// policy if none is up.
func (f *Follower) client() (*wire.Client, error) {
	f.mu.Lock()
	cl := f.cl
	f.mu.Unlock()
	if cl != nil {
		return cl, nil
	}
	err := f.cfg.Retry.Do(f.stop, func() error {
		conn, err := f.cfg.Dial(f.cfg.Addr)
		if err != nil {
			return err
		}
		c, err := wire.NewClient(conn)
		if err != nil {
			conn.Close()
			return err
		}
		cl = c
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.stopped() {
		// Stop already closed the connection it knew of; this one would
		// escape it.
		cl.Close()
		return nil, retry.ErrStopped
	}
	f.cl = cl
	return cl, nil
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// pullRound pulls every known shard once (shard 0 first — it discovers
// the fabric's shard count on initial attach).
func (f *Follower) pullRound() error {
	n := len(f.mirrors)
	if n == 0 {
		n = 1 // discovery pull against shard 0
	}
	for s := 0; s < n; s++ {
		if err := f.pullShard(s); err != nil {
			return err
		}
		if len(f.mirrors) > n {
			n = len(f.mirrors)
		}
	}
	return nil
}

// pullShard issues one pull for shard s and applies the response,
// retrying transport failures under the policy (reconnecting each time).
func (f *Follower) pullShard(s int) error {
	var applyErr error
	err := f.cfg.Retry.Do(f.stop, func() error {
		cl, err := f.client()
		if err != nil {
			// client() already consumed the policy; treat its failure as
			// final for this round.
			return retry.Permanent(err)
		}
		var m mirror
		if s < len(f.mirrors) {
			m = f.mirrors[s]
		}
		ch, err := cl.ReplPull(wire.ReplPullRequest{
			Shard:    s,
			Gen:      m.gen,
			WALOff:   m.walOff,
			RetOff:   m.retOff,
			RetEpoch: m.retEpoch,
			Max:      f.cfg.MaxChunk,
		})
		if err != nil {
			if f.stopped() {
				return retry.Permanent(retry.ErrStopped) // Stop aborted the pull
			}
			// Transport failure: drop the connection and let the policy
			// schedule the re-dial.
			f.closeConn()
			f.reconnects.Add(1)
			return err
		}
		if applyErr = f.apply(s, ch); applyErr != nil {
			return retry.Permanent(applyErr)
		}
		return nil
	})
	if err != nil {
		return err
	}
	f.attached.Store(true)
	f.lastPullNs.Store(time.Now().UnixNano())
	return nil
}

func (f *Follower) shardDir(s int) string {
	return filepath.Join(f.cfg.Dir, fmt.Sprintf("shard-%03d", s))
}

// apply executes one replication chunk against the mirror. Every file
// mutation is fsynced before the in-memory cursor advances: the cursor is
// only ever an under-statement of what is on disk.
func (f *Follower) apply(s int, ch wire.ReplChunk) error {
	if len(f.mirrors) == 0 {
		if ch.Shards < 1 {
			return fmt.Errorf("repl: primary reported %d shards", ch.Shards)
		}
		if err := f.initLayout(ch.Shards); err != nil {
			return err
		}
	}
	if s >= len(f.mirrors) {
		return fmt.Errorf("repl: chunk for shard %d of %d", s, len(f.mirrors))
	}
	m := &f.mirrors[s]
	switch ch.Action {
	case wire.ReplBootstrap:
		if err := f.bootstrap(s, ch); err != nil {
			return err
		}
		f.bootstraps.Add(1)
		return nil
	case wire.ReplWAL:
		if ch.Gen != m.gen || m.wal == nil {
			return fmt.Errorf("repl: WAL chunk for gen %d, mirror at gen %d", ch.Gen, m.gen)
		}
		if _, err := m.wal.Write(ch.Data); err != nil {
			return err
		}
		if err := m.wal.Sync(); err != nil {
			return err
		}
		m.walOff += int64(len(ch.Data))
		f.pulledBytes.Add(uint64(len(ch.Data)))
		f.noteLag(ch, m)
		return nil
	case wire.ReplRetained:
		if ch.RetEpoch != m.retEpoch {
			return fmt.Errorf("repl: retained chunk for epoch %d, mirror at %d", ch.RetEpoch, m.retEpoch)
		}
		path := filepath.Join(f.shardDir(s), journal.RetainedName)
		rf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		_, werr := rf.Write(ch.Data)
		if werr == nil {
			werr = rf.Sync()
		}
		rf.Close()
		if werr != nil {
			return werr
		}
		m.retOff += int64(len(ch.Data))
		f.pulledBytes.Add(uint64(len(ch.Data)))
		return nil
	case wire.ReplRetReset:
		// The primary rewrote the retained log (tally aging): restart the
		// mirror copy from its header under the new epoch.
		path := filepath.Join(f.shardDir(s), journal.RetainedName)
		if err := os.Truncate(path, journal.HeaderSize); err != nil {
			return err
		}
		m.retOff = journal.HeaderSize
		m.retEpoch = ch.RetEpoch
		return nil
	case wire.ReplAdvance, wire.ReplIdle:
		f.noteLag(ch, m)
		return nil
	default:
		return fmt.Errorf("repl: unknown chunk action %d", ch.Action)
	}
}

// noteLag records the primary-reported durable frontier against the
// mirror's cursor.
func (f *Follower) noteLag(ch wire.ReplChunk, m *mirror) {
	if ch.Gen == m.gen && ch.Durable >= m.walOff {
		f.lagBytes.Store(ch.Durable - m.walOff)
	}
}

// initLayout discovers the primary's shard count on first contact and
// writes the fabric-level manifest so the mirror opens as a fabric
// persist directory of the same shape.
func (f *Follower) initLayout(shards int) error {
	data, err := json.Marshal(fabricManifest{Version: 1, Shards: shards})
	if err != nil {
		return err
	}
	if err := journal.WriteFileAtomic(filepath.Join(f.cfg.Dir, journal.ManifestName), data); err != nil {
		return err
	}
	f.mu.Lock()
	f.mirrors = make([]mirror, shards)
	f.mu.Unlock()
	return nil
}

// bootstrap re-seeds one shard's mirror from a full snapshot + retained
// log, discarding whatever the mirror held. The shard directory is
// rebuilt so no stale generation can survive into a promotion.
func (f *Follower) bootstrap(s int, ch wire.ReplChunk) error {
	m := &f.mirrors[s]
	if m.wal != nil {
		m.wal.Close()
		m.wal = nil
	}
	dir := f.shardDir(s)
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if len(ch.Data) > 0 {
		if err := journal.WriteFileAtomic(filepath.Join(dir, journal.SnapName(ch.Gen)), ch.Data); err != nil {
			return err
		}
	}
	retained := ch.Data2
	if len(retained) == 0 {
		retained = []byte(journal.MagicRetained)
	}
	if err := journal.WriteFileAtomic(filepath.Join(dir, journal.RetainedName), retained); err != nil {
		return err
	}
	wal, err := os.OpenFile(filepath.Join(dir, journal.WALName(ch.Gen)),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := wal.Write([]byte(journal.MagicWAL)); err != nil {
		wal.Close()
		return err
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return err
	}
	if err := journal.WriteManifestFile(dir, ch.Gen); err != nil {
		wal.Close()
		return err
	}
	*m = mirror{gen: ch.Gen, walOff: journal.HeaderSize, retOff: int64(len(retained)), retEpoch: ch.RetEpoch, wal: wal}
	return nil
}
