package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/clamshell/clamshell/internal/sketch"
)

// Store is one shard's durability directory:
//
//	MANIFEST      {"version":1,"gen":G} — snap-G is the committed base
//	snap-<G>      compacted snapshot of the live state at wal-<G>'s birth
//	wal-<G>...    op logs; wal-<G> holds every op since snap-<G>
//	retained.log  append-only tallies of demoted completed tasks
//
// Recovery is load snap-<G>, replay wal-<G> (and any wal-<G+k> left by a
// compaction that rotated but crashed before committing), then overlay the
// retained tallies. Compaction is two-phase so a crash at any byte leaves a
// recoverable prefix: Rotate (under the shard lock) atomically starts a new
// wal at the moment the snapshot state is captured; Commit (off the lock)
// makes the snapshot durable, moves the manifest forward with an atomic
// rename, and only then deletes the superseded generation. Until the
// manifest rename lands, recovery uses the previous snapshot plus both wal
// generations — the same state, one generation less compact.
type Store struct {
	dir string

	mu     sync.Mutex
	gen    uint64 // committed (manifest) generation
	cur    uint64 // generation receiving appends (>= gen)
	wal    *os.File
	ret    *os.File
	walOps uint64 // records in the current wal
	rec    []byte // Append's record buffer, reused across appends
	err    error  // first write-path error since the last healing commit (see Err)
	errGen uint64 // generation current when err was recorded

	// Replication watermarks: bytes appended to / fsynced into the current
	// wal (header included), the retained log's size, and a counter bumped
	// by every RewriteRetained so a follower mirroring the retained log by
	// offset can detect that the bytes under its feet were replaced.
	walBytes  int64
	walSynced int64
	retBytes  int64
	retEpoch  uint64

	// Fsync policy (see SetSync). dirty marks appended-but-unsynced wal
	// bytes in group mode; syncs counts wal fsyncs (observability + tests).
	mode      SyncMode
	dirty     bool
	syncs     uint64
	groupStop chan struct{}
	groupDone chan struct{}
	kick      chan struct{} // 1-buffered: Kick requests the group commit now

	// sig, when set, is fired at every change a replication reader can
	// observe: durable frontier, generation, retained log (see SetSignal).
	sig *Signal

	// Observability: commit lag (first buffered op → durable fsync) and
	// group-commit batch size, recorded into striped sketches outside mu;
	// pendingOps/dirtySince track the open batch, retRecords the
	// retained-log record count (the aging rewrite trigger).
	lagRec     *sketch.Recorder
	batchRec   *sketch.Recorder
	pendingOps uint64
	dirtySince time.Time
	retRecords int
}

// SyncMode selects when the op log is fsynced. The zero value is SyncOff —
// the historical behavior, where the wal reaches the disk at rotation and
// commit only. Callers that want power-loss durability for individual ops
// pick SyncCommit (one fsync per append, serializing wire-speed submit
// rates on the disk) or SyncGroup (appends mark the log dirty and one fsync
// covers the batch — bounded data loss, no per-op disk stall).
type SyncMode int

const (
	// SyncOff: no per-op fsync; rotation and commit still sync.
	SyncOff SyncMode = iota
	// SyncCommit: fsync on every appended op before Append returns.
	SyncCommit
	// SyncGroup: batch fsyncs in the group-commit loop. An op is durable
	// after the next batch fsync, which runs when a caller asks for it
	// (Kick — the replication barrier does) or else on the next tick of the
	// group interval (DefaultGroupInterval unless set), whichever is first.
	SyncGroup
)

// DefaultGroupInterval is the group-commit ticker period when the caller
// does not choose one.
const DefaultGroupInterval = 5 * time.Millisecond

// ParseSyncMode maps the operator-facing -fsync flag values. The empty
// string selects group commit (the recommended default).
func ParseSyncMode(s string) (SyncMode, error) {
	switch s {
	case "", "group":
		return SyncGroup, nil
	case "commit":
		return SyncCommit, nil
	case "off":
		return SyncOff, nil
	}
	return SyncOff, fmt.Errorf("journal: unknown fsync mode %q (want commit, group or off)", s)
}

// SetSync sets the store's fsync policy. interval is SyncGroup's tick
// (<= 0 selects DefaultGroupInterval), the backstop for batches nobody
// Kicks. Call it before serving traffic; switching modes stops any previous
// group ticker.
func (s *Store) SetSync(mode SyncMode, interval time.Duration) {
	s.mu.Lock()
	stop, done := s.groupStop, s.groupDone
	s.groupStop, s.groupDone = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mode = mode
	if mode != SyncGroup {
		return
	}
	if interval <= 0 {
		interval = DefaultGroupInterval
	}
	s.groupStop = make(chan struct{})
	s.groupDone = make(chan struct{})
	go s.groupLoop(s.groupStop, s.groupDone, interval)
}

// groupLoop is the group-commit loop: it fsyncs the wal whenever ops have
// accumulated, on every tick and on every Kick. Kicks that arrive while a
// batch fsync runs coalesce into one more.
func (s *Store) groupLoop(stop, done chan struct{}, interval time.Duration) {
	defer close(done)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			// Drain once on shutdown so the last batch is not lost to a
			// clean Close racing the ticker.
			s.syncDirty()
			return
		case <-t.C:
			s.syncDirty()
		case <-s.kick:
			s.syncDirty()
		}
	}
}

// Kick asks the group-commit loop to fsync the pending batch now instead
// of at the next tick. It never blocks, and it does nothing in the other
// sync modes (there, appended bytes are already as durable as they get).
func (s *Store) Kick() {
	select {
	case s.kick <- struct{}{}:
	default: // a kick is already pending; it covers this one
	}
}

// SetSignal makes the store fire sig at every replication-visible change:
// the durable frontier advancing, a rotation or commit moving the
// generation, the retained log growing or being rewritten, and Close. One
// signal may serve many stores, so a reader can wait on all of them at
// once. Call it before serving traffic.
func (s *Store) SetSignal(sig *Signal) {
	s.mu.Lock()
	s.sig = sig
	s.mu.Unlock()
}

// notifyLocked fires the store's signal. Callers hold mu.
func (s *Store) notifyLocked() {
	if s.sig != nil {
		s.sig.Fire()
	}
}

// Signal is a broadcast edge: Wait returns a channel that the next Fire
// closes. The channel is made on demand, so firing a signal nobody waits
// on costs no allocation. The zero value is ready to use.
type Signal struct {
	mu sync.Mutex
	ch chan struct{}
}

// Wait returns the channel the next Fire closes. Until then every call
// returns the same channel, so comparing two results tells whether a Fire
// happened in between. Take it before reading the state it guards, so a
// change racing the read still wakes the wait.
func (g *Signal) Wait() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ch == nil {
		g.ch = make(chan struct{})
	}
	return g.ch
}

// Fire wakes every Wait channel handed out since the previous Fire.
func (g *Signal) Fire() {
	g.mu.Lock()
	if g.ch != nil {
		close(g.ch)
		g.ch = nil
	}
	g.mu.Unlock()
}

// syncDirty fsyncs the wal if group-mode appends are pending.
func (s *Store) syncDirty() {
	s.mu.Lock()
	if !s.dirty {
		s.mu.Unlock()
		return
	}
	lag := time.Since(s.dirtySince).Seconds()
	batch := s.pendingOps
	s.clearPendingLocked()
	s.syncs++
	//clamshell:blocking-ok group-commit design: the batch fsync holds the store lock so appends order against it
	err := s.wal.Sync()
	if err != nil {
		s.failLocked(err)
	} else {
		s.walSynced = s.walBytes
		s.notifyLocked()
	}
	s.mu.Unlock()
	if err == nil {
		s.lagRec.Record(lag)
		s.batchRec.Record(float64(batch))
	}
}

// clearPendingLocked resets the open group-commit batch bookkeeping.
func (s *Store) clearPendingLocked() {
	s.dirty = false
	s.pendingOps = 0
	s.dirtySince = time.Time{}
}

// SyncPending reports whether group-mode appends are awaiting their batch
// fsync.
func (s *Store) SyncPending() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirty
}

// WALSyncs returns how many wal fsyncs the store has issued (all modes).
func (s *Store) WALSyncs() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncs
}

// Recovered is the durable state Open found: the committed snapshot (nil if
// none was ever committed), the op suffix to replay over it, and the
// retained-tally payloads to overlay last.
type Recovered struct {
	Snapshot  []byte
	Ops       []Op
	Retained  [][]byte
	Truncated bool // a torn tail was dropped from a log
}

// manifest is the store's commit point, replaced by atomic rename.
type manifest struct {
	Version int    `json:"version"`
	Gen     uint64 `json:"gen"`
}

const manifestVersion = 1

// File names within a store directory.
const (
	ManifestName = "MANIFEST"
	RetainedName = "retained.log"
)

// WALName returns the op-log file name for a generation.
func WALName(gen uint64) string { return fmt.Sprintf("wal-%d", gen) }

// SnapName returns the snapshot file name for a generation.
func SnapName(gen uint64) string { return fmt.Sprintf("snap-%d", gen) }

// Open opens (creating if needed) a shard store and recovers its durable
// state. The returned store is ready for Append; the caller is expected to
// have applied the Recovered state before the first new op lands.
func Open(dir string) (*Store, Recovered, error) {
	var rec Recovered
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, rec, err
	}
	s := &Store{
		dir:      dir,
		kick:     make(chan struct{}, 1),
		lagRec:   sketch.NewRecorder(sketch.DefaultCompression),
		batchRec: sketch.NewRecorder(sketch.DefaultCompression),
	}

	m, err := s.readManifest()
	if err != nil {
		return nil, rec, err
	}
	s.gen, s.cur = m.Gen, m.Gen

	if data, err := os.ReadFile(s.path(SnapName(s.gen))); err == nil {
		rec.Snapshot = data
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, rec, err
	}

	// Replay wal generations from the committed base upward. Generations
	// are contiguous (Rotate allocates them one at a time); a generation
	// above gen exists only when a compaction rotated and then crashed
	// before committing.
	for g := s.gen; ; g++ {
		payloads, truncated, err := s.recoverLog(s.path(WALName(g)), MagicWAL)
		if errors.Is(err, os.ErrNotExist) {
			if g == s.gen {
				// Fresh generation: create its wal now.
				if err := s.createLog(s.path(WALName(g)), MagicWAL); err != nil {
					return nil, rec, err
				}
				payloads, truncated = nil, false
			} else {
				s.cur = g - 1
				break
			}
		} else if err != nil {
			return nil, rec, err
		}
		s.cur = g
		s.walOps = uint64(len(payloads))
		for _, p := range payloads {
			op, err := DecodeOp(p)
			if err != nil {
				// An undecodable but checksummed record: written by a
				// newer build. Refuse to half-recover.
				return nil, rec, err
			}
			rec.Ops = append(rec.Ops, op)
		}
		if truncated {
			rec.Truncated = true
			// Everything after a tear is garbage from an interrupted
			// write; later generations cannot legitimately exist.
			for gg := g + 1; ; gg++ {
				if os.Remove(s.path(WALName(gg))) != nil {
					break
				}
			}
			break
		}
	}

	// Retained tallies overlay last (they are immutable once written).
	if payloads, truncated, err := s.recoverLog(s.path(RetainedName), MagicRetained); err == nil {
		rec.Retained = payloads
		rec.Truncated = rec.Truncated || truncated
		s.retRecords = len(payloads)
	} else if errors.Is(err, os.ErrNotExist) {
		if err := s.createLog(s.path(RetainedName), MagicRetained); err != nil {
			return nil, rec, err
		}
	} else {
		return nil, rec, err
	}

	if s.wal, err = os.OpenFile(s.path(WALName(s.cur)), os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, rec, err
	}
	// Recovery truncated any torn tail above, so what is on disk now is the
	// durable prefix: both watermarks start at the file size.
	if st, err := s.wal.Stat(); err == nil {
		s.walBytes, s.walSynced = st.Size(), st.Size()
	} else {
		_ = s.wal.Close()
		return nil, rec, err
	}
	if st, err := os.Stat(s.path(RetainedName)); err == nil {
		s.retBytes = st.Size()
	}
	if s.ret, err = os.OpenFile(s.path(RetainedName), os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		// Best-effort: the open itself failed, so there is no store to
		// record a sticky error against; the open error is what surfaces.
		_ = s.wal.Close()
		return nil, rec, err
	}
	s.sweepBelow(s.gen)
	return s, rec, nil
}

// sweepBelow removes wal/snap files of generations below the committed
// one. Commit deletes the generation it supersedes, but a crash between
// its manifest rename and its removal loop strands the old files; without
// this sweep they would accumulate forever.
func (s *Store) sweepBelow(gen uint64) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		var g uint64
		if n, err := fmt.Sscanf(e.Name(), "wal-%d", &g); n == 1 && err == nil && g < gen {
			os.Remove(s.path(e.Name()))
			continue
		}
		if n, err := fmt.Sscanf(e.Name(), "snap-%d", &g); n == 1 && err == nil && g < gen {
			os.Remove(s.path(e.Name()))
		}
	}
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

func (s *Store) readManifest() (manifest, error) {
	m := manifest{Version: manifestVersion, Gen: 1}
	data, err := os.ReadFile(s.path(ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return m, s.writeManifest(m)
	}
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("journal: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return m, fmt.Errorf("journal: manifest version %d, want %d", m.Version, manifestVersion)
	}
	if m.Gen < 1 {
		return m, fmt.Errorf("journal: manifest generation %d out of range", m.Gen)
	}
	return m, nil
}

// writeManifest replaces the manifest via write-to-temp + fsync + rename.
func (s *Store) writeManifest(m manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return WriteFileAtomic(s.path(ManifestName), data)
}

// createLog creates a fresh log file holding only its header.
func (s *Store) createLog(path, magic string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if err := WriteHeader(f, magic); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// recoverLog scans a log file, truncates any torn tail in place, and
// returns the intact record payloads.
func (s *Store) recoverLog(path, magic string) (payloads [][]byte, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	sc, err := NewScanner(f, magic)
	if err != nil {
		f.Close()
		return nil, false, err
	}
	for {
		p, err := sc.Scan()
		if err == io.EOF {
			break
		}
		if err != nil {
			truncated = true
			break
		}
		payloads = append(payloads, p)
	}
	off := sc.Offset()
	f.Close()
	if truncated {
		if err := os.Truncate(path, off); err != nil {
			return nil, true, err
		}
	}
	return payloads, truncated, nil
}

// maxKeptRec bounds the record buffer a Store keeps between appends, so one
// huge submit does not pin its buffer for the store's lifetime.
const maxKeptRec = 64 << 10

// Append journals one op. It is called on the mutation path while the
// owning shard's lock is held, so records land in mutation order. The
// record is encoded and framed in place in a buffer the store reuses and
// goes out in one Write, so a settled store appends without allocating.
// An I/O failure cannot un-apply the mutation; it is recorded sticky (Err)
// for the operator instead of being silently dropped.
//
//clamshell:hotpath
func (s *Store) Append(op Op) error {
	var lag float64
	committed := false
	s.mu.Lock()
	var zero [frameLen]byte
	s.rec = appendOp(append(s.rec[:0], zero[:]...), &op)
	err := sealRecord(s.rec)
	if err == nil {
		_, err = s.wal.Write(s.rec)
	}
	if err == nil {
		s.walOps++
		s.walBytes += int64(len(s.rec))
		switch s.mode {
		case SyncCommit:
			s.syncs++
			t0 := time.Now()
			//clamshell:blocking-ok commit mode acknowledges only durable ops; the fsync must precede the unlock
			if err = s.wal.Sync(); err == nil {
				lag = time.Since(t0).Seconds()
				committed = true
				s.walSynced = s.walBytes
			}
		case SyncGroup:
			s.pendingOps++
			if !s.dirty {
				s.dirty = true
				s.dirtySince = time.Now()
			}
		}
		if s.mode != SyncGroup {
			// SyncOff ships everything appended; SyncCommit just synced.
			s.notifyLocked()
		}
	}
	if cap(s.rec) > maxKeptRec {
		s.rec = nil
	}
	s.mu.Unlock()
	if committed {
		s.lagRec.Record(lag)
		s.batchRec.Record(1)
	}
	if err != nil {
		s.fail(err)
	}
	return err
}

// AppendRetained journals demoted-task tallies and syncs them to disk.
func (s *Store) AppendRetained(payloads [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range payloads {
		if err := AppendRecord(s.ret, p); err != nil {
			s.failLocked(err)
			return err
		}
		s.retRecords++
		s.retBytes += 8 + int64(len(p))
	}
	if len(payloads) > 0 {
		//clamshell:blocking-ok retained tallies must be durable before the commit's manifest rename
		if err := s.ret.Sync(); err != nil {
			s.failLocked(err)
			return err
		}
		s.notifyLocked()
	}
	return nil
}

// RetainedRecords returns how many records the retained log holds,
// including superseded versions of re-written tallies. The caller compares
// it against the live tally count to decide when a rewrite pays off.
func (s *Store) RetainedRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retRecords
}

// RewriteRetained atomically replaces the retained log with exactly the
// given payloads, discarding superseded versions that the append-only log
// accumulated (tally aging re-appends a task's record each time its shape
// changes). The new log is built beside the old one and swapped in by
// rename, so a crash at any byte leaves a complete log — old or new.
func (s *Store) RewriteRetained(payloads [][]byte) error {
	tmp := s.path(RetainedName + ".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		s.fail(err)
		return err
	}
	werr := WriteHeader(f, MagicRetained)
	for _, p := range payloads {
		if werr != nil {
			break
		}
		werr = AppendRecord(f, p)
	}
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		s.fail(werr)
		return werr
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmp, s.path(RetainedName)); err != nil {
		os.Remove(tmp)
		s.failLocked(err)
		return err
	}
	if cerr := s.ret.Close(); cerr != nil {
		// The rewritten log is already durable and renamed into place; a
		// close failure on the superseded handle still signals fd-level
		// trouble, so record it without failing the rewrite.
		s.failLocked(cerr)
	}
	if s.ret, err = os.OpenFile(s.path(RetainedName), os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		s.failLocked(err)
		return err
	}
	s.retRecords = len(payloads)
	if st, serr := s.ret.Stat(); serr == nil {
		s.retBytes = st.Size()
	}
	s.retEpoch++
	s.notifyLocked()
	return nil
}

// Rotate starts generation cur+1: subsequent Appends land in the new wal.
// The caller must hold its shard lock across the state capture and this
// call, so the new wal holds exactly the ops after the captured state. The
// returned generation is passed to Commit.
func (s *Store) Rotate() (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := s.cur + 1
	if err := s.createLog(s.path(WALName(next)), MagicWAL); err != nil {
		s.failLocked(err)
		return 0, err
	}
	f, err := os.OpenFile(s.path(WALName(next)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		s.failLocked(err)
		return 0, err
	}
	old := s.wal
	s.wal = f
	prev := s.cur
	s.cur = next
	s.walOps = 0
	s.walBytes, s.walSynced = headerLen, headerLen
	// The old.Sync below makes any open group batch durable; fold it into
	// the sketches rather than letting it straddle the generation swap.
	if s.dirty {
		s.lagRec.Record(time.Since(s.dirtySince).Seconds())
		s.batchRec.Record(float64(s.pendingOps))
		s.clearPendingLocked()
	}
	//clamshell:blocking-ok the rotated-out wal must be durable before the generation swap is visible
	if err := old.Sync(); err != nil {
		// The rotated-out wal's tail may not be durable. Record it against
		// the previous generation: the commit that follows folds that
		// generation's ops into a snapshot, healing the gap.
		s.failGenLocked(err, prev)
	}
	if err := old.Close(); err != nil {
		s.failGenLocked(err, prev)
	}
	s.notifyLocked()
	return next, nil
}

// Commit makes generation gen's snapshot durable and retires everything
// older. newTallies are the tallies of tasks demoted when the snapshot was
// captured; they are made durable before the manifest moves, so a recovery
// from either side of the commit point sees each task exactly once (the
// overlay step deduplicates a task that is still live in the older
// snapshot).
func (s *Store) Commit(gen uint64, snapshot []byte, newTallies [][]byte) error {
	if err := s.AppendRetained(newTallies); err != nil {
		return err
	}
	if err := WriteFileAtomic(s.path(SnapName(gen)), snapshot); err != nil {
		s.fail(err)
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.gen
	if gen < old {
		// A stale cycle must never move the manifest backwards past a
		// generation whose wal was already deleted. Compaction cycles are
		// serialized by the caller; this is the backstop.
		err := fmt.Errorf("journal: stale compaction generation %d (committed %d)", gen, old)
		s.failLocked(err)
		return err
	}
	if err := s.writeManifest(manifest{Version: manifestVersion, Gen: gen}); err != nil {
		s.failLocked(err)
		return err
	}
	s.gen = gen
	if s.err != nil && s.errGen < gen {
		// The committed snapshot was captured at this generation's birth,
		// after the failed write's mutation was applied in memory — the
		// lost record's effect is durable again, so the error has healed.
		s.err = nil
	}
	for g := old; g < gen; g++ {
		os.Remove(s.path(WALName(g)))
		os.Remove(s.path(SnapName(g)))
	}
	s.notifyLocked()
	return nil
}

// Sync flushes the op log to stable storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	wasDirty := s.dirty
	var lag float64
	var batch uint64
	if wasDirty {
		lag = time.Since(s.dirtySince).Seconds()
		batch = s.pendingOps
		s.clearPendingLocked()
	}
	s.syncs++
	//clamshell:blocking-ok explicit Sync drains the open batch; the fsync orders against appends via the lock
	err := s.wal.Sync()
	if err != nil {
		s.failLocked(err)
	} else {
		s.walSynced = s.walBytes
		s.notifyLocked()
	}
	s.mu.Unlock()
	if err == nil && wasDirty {
		s.lagRec.Record(lag)
		s.batchRec.Record(float64(batch))
	}
	return err
}

// CommitLagSnapshot returns a merged sketch of commit lag: the seconds
// between an op entering the journal and the fsync that made it durable
// (per-op sync time in commit mode, batch age in group mode).
func (s *Store) CommitLagSnapshot() *sketch.TDigest { return s.lagRec.Snapshot() }

// BatchSnapshot returns a merged sketch of group-commit batch sizes (ops
// made durable per fsync; always 1 in commit mode).
func (s *Store) BatchSnapshot() *sketch.TDigest { return s.batchRec.Snapshot() }

// DirtyAge returns how long the oldest unsynced group-mode op has been
// waiting for its batch fsync, or 0 when the wal is clean.
func (s *Store) DirtyAge() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.dirty {
		return 0
	}
	return time.Since(s.dirtySince)
}

// Close stops the group-commit ticker (flushing any pending batch), then
// syncs and closes the store's files.
func (s *Store) Close() error {
	s.mu.Lock()
	stop, done := s.groupStop, s.groupDone
	s.groupStop, s.groupDone = nil, nil
	s.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	//clamshell:blocking-ok final flush on Close; the store is quiescing
	err := s.wal.Sync()
	if e := s.wal.Close(); err == nil {
		err = e
	}
	if e := s.ret.Close(); err == nil {
		err = e
	}
	s.notifyLocked()
	return err
}

// Gen returns the generation currently receiving appends.
func (s *Store) Gen() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// WALOps returns how many ops the current wal generation holds.
func (s *Store) WALOps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walOps
}

// Err returns the store's standing write-path error, or nil. A non-nil
// value means the journal may be missing ops since the last committed
// snapshot; it clears when a later compaction commits (the new snapshot
// re-captures the full live state, so nothing is missing anymore).
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Store) fail(err error) {
	s.mu.Lock()
	s.failLocked(err)
	s.mu.Unlock()
}

func (s *Store) failLocked(err error) {
	s.failGenLocked(err, s.cur)
}

func (s *Store) failGenLocked(err error, gen uint64) {
	if s.err == nil {
		s.err = err
		s.errGen = gen
	}
}

// HeaderSize is the byte length of every journal file's magic header; a
// replication mirror of a journal file starts appending at this offset.
const HeaderSize = headerLen

// ErrReplReset reports that a follower's replication position no longer
// maps onto this store — the generation was compacted away, the offset is
// past the durable prefix (a primary restart truncated a torn tail), or
// the follower is otherwise out of sync. The only recovery is a fresh
// bootstrap of the shard from BootstrapData.
var ErrReplReset = errors.New("journal: replication position invalid; bootstrap required")

// ReplState is a snapshot of the store's replication watermarks.
type ReplState struct {
	Base          uint64 // committed (manifest) generation
	Cur           uint64 // generation receiving appends
	Durable       int64  // fsynced bytes of wal-<Cur> (all bytes in SyncOff mode)
	Appended      int64  // appended bytes of wal-<Cur>
	RetainedSize  int64  // retained.log size in bytes
	RetainedEpoch uint64 // bumped by every RewriteRetained
}

// durableLocked returns the shippable byte watermark of the current wal.
// SyncOff mode never fsyncs per-op, so replication ships everything
// appended (the mode is explicitly non-durable); otherwise only fsynced
// bytes ship, which is what lets a follower's pull double as an ack that
// the shipped prefix is durable on both sides.
func (s *Store) durableLocked() int64 {
	if s.mode == SyncOff {
		return s.walBytes
	}
	return s.walSynced
}

// ReplState returns the store's current replication watermarks.
func (s *Store) ReplState() ReplState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ReplState{
		Base:          s.gen,
		Cur:           s.cur,
		Durable:       s.durableLocked(),
		Appended:      s.walBytes,
		RetainedSize:  s.retBytes,
		RetainedEpoch: s.retEpoch,
	}
}

// ReadWALChunk reads up to max bytes of wal-<gen> starting at byte offset
// off, returning the chunk, the generation's shippable limit, and the
// current generation. An empty chunk with durable == off means the reader
// is caught up on this generation (and should advance when gen < cur).
// ErrReplReset means the position cannot be served and the follower must
// bootstrap the shard afresh.
//
// WAL files are append-only while the store is open — bytes below the
// durable watermark never change, and superseded generations are deleted
// whole — so the file read happens outside the store lock.
func (s *Store) ReadWALChunk(gen uint64, off int64, max int) (data []byte, durable int64, cur uint64, err error) {
	s.mu.Lock()
	base := s.gen
	cur = s.cur
	curDurable := s.durableLocked()
	s.mu.Unlock()
	if gen < base || gen > cur || off < headerLen {
		return nil, 0, cur, ErrReplReset
	}
	if gen == cur {
		durable = curDurable
	} else {
		st, serr := os.Stat(s.path(WALName(gen)))
		if serr != nil {
			// Deleted by a racing Commit: the generation is compacted away.
			return nil, 0, cur, ErrReplReset
		}
		durable = st.Size()
	}
	if off > durable {
		return nil, 0, cur, ErrReplReset
	}
	if off == durable || max <= 0 {
		return nil, durable, cur, nil
	}
	n := durable - off
	if int64(max) < n {
		n = int64(max)
	}
	f, err := os.Open(s.path(WALName(gen)))
	if err != nil {
		return nil, 0, cur, ErrReplReset
	}
	defer f.Close()
	data = make([]byte, n)
	if _, err := f.ReadAt(data, off); err != nil {
		return nil, 0, cur, ErrReplReset
	}
	return data, durable, cur, nil
}

// ReadRetainedChunk reads up to max bytes of the retained log at byte
// offset off. It returns the log's current size and rewrite epoch; when
// the caller's epoch does not match, the bytes it mirrored are stale
// (RewriteRetained replaced the file) and it must restart the retained
// mirror from HeaderSize. The read runs under the store lock so it cannot
// race the rewrite's rename swap.
func (s *Store) ReadRetainedChunk(off int64, max int) (data []byte, size int64, epoch uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	size, epoch = s.retBytes, s.retEpoch
	if off < headerLen || off >= size || max <= 0 {
		return nil, size, epoch, nil
	}
	n := size - off
	if int64(max) < n {
		n = int64(max)
	}
	f, ferr := os.Open(s.path(RetainedName))
	if ferr != nil {
		return nil, size, epoch, ferr
	}
	defer f.Close()
	data = make([]byte, n)
	if _, rerr := f.ReadAt(data, off); rerr != nil {
		return nil, size, epoch, rerr
	}
	return data, size, epoch, nil
}

// BootstrapData captures a consistent bootstrap image for a follower: the
// committed base generation, its snapshot bytes (nil when nothing was ever
// committed), and the whole retained log with its epoch. It runs under the
// store lock, which serializes it against Commit's manifest move and
// generation sweep, so the three pieces always agree. After applying it,
// the follower resumes WAL mirroring at generation base, offset
// HeaderSize.
func (s *Store) BootstrapData() (base uint64, snapshot, retained []byte, epoch uint64, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base = s.gen
	snapshot, err = os.ReadFile(s.path(SnapName(base)))
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			return 0, nil, nil, 0, err
		}
		snapshot = nil
	}
	retained, err = os.ReadFile(s.path(RetainedName))
	if err != nil {
		return 0, nil, nil, 0, err
	}
	return base, snapshot, retained, s.retEpoch, nil
}

// WriteManifestFile writes a shard MANIFEST committing generation gen into
// dir. It is exported for the replication follower, which materializes a
// bootstrap image into an on-disk layout that Open recovers identically to
// the primary's own directory.
func WriteManifestFile(dir string, gen uint64) error {
	data, err := json.Marshal(manifest{Version: manifestVersion, Gen: gen})
	if err != nil {
		return err
	}
	return WriteFileAtomic(filepath.Join(dir, ManifestName), data)
}

// ReadManifestGen returns the generation committed by dir's MANIFEST, or 0
// with os.ErrNotExist when none was ever written.
func ReadManifestGen(dir string) (uint64, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return 0, err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return 0, fmt.Errorf("journal: decoding manifest: %w", err)
	}
	if m.Version != manifestVersion || m.Gen < 1 {
		return 0, fmt.Errorf("journal: bad manifest (version %d, gen %d)", m.Version, m.Gen)
	}
	return m.Gen, nil
}

// WriteFileAtomic replaces path with data via temp file + fsync + rename,
// so readers observe either the old content or the new, never a torn mix.
func WriteFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
