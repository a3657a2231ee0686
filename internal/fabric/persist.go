package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/server"
)

// The journal engine behind the fabric: each shard owns one journal.Store
// under PersistDir and writes through its op log on every mutation; a
// background compactor periodically folds each journal into a compacted
// snapshot (demoting completed tasks past the retention window to vote
// tallies). Boot recovers every shard independently — latest snapshot +
// journal suffix + tally overlay — unless the directory was written by a
// fabric of a different shard count, in which case the old layout is
// merged, re-split by the (id-1) mod n routing rule, and re-committed
// (resize-on-restore; a RESIZE checkpoint file makes the transition
// crash-safe at every step).
//
// Directory layout:
//
//	<dir>/MANIFEST       {"version":1,"shards":N}
//	<dir>/RESIZE         merged-state checkpoint, present only mid-resize
//	<dir>/shard-000/...  one journal.Store per shard
type PersistOptions struct {
	// Dir is the durability directory (created if missing).
	Dir string
	// Retention demotes completed tasks older than this to vote tallies at
	// each compaction. <= 0 keeps full task history forever (the journal
	// is still truncated by compaction).
	Retention time.Duration
	// CompactInterval runs the background compactor this often. <= 0
	// disables the background pass; compaction then only happens via
	// CompactAll (tests, or an explicit restore).
	CompactInterval time.Duration

	// Fsync selects the op-journal fsync policy: "group" (the default —
	// appends are batched onto a short ticker, so wire-speed submit rates
	// never serialize on the disk), "commit" (fsync every op before
	// acknowledging) or "off" (journal reaches disk at compaction only).
	Fsync string

	// FsyncInterval is the group-commit batching interval (<= 0 selects
	// journal.DefaultGroupInterval).
	FsyncInterval time.Duration
}

// fabricManifest pins the shard count a persist directory was written
// with, so a boot with a different -shards value triggers the resize path
// instead of silently misrouting ids.
type fabricManifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

const fabricManifestVersion = 1

// resizeName is the crash-safe checkpoint written while re-sharding a
// persist directory.
const resizeName = "RESIZE"

type persistState struct {
	opts     PersistOptions
	syncMode journal.SyncMode
	stores   []*journal.Store

	// compactMu serializes whole compaction cycles (and store rebuilds):
	// two interleaved Rotate/Commit cycles on one store could move the
	// manifest backwards past a deleted wal. The background compactor, an
	// explicit CompactAll and a facade restore all take it.
	compactMu sync.Mutex

	mu      sync.Mutex
	lastErr error
	pulls   []pullSeen // per shard: the last replication pull served (repl.go)

	// sig fires at every replication-visible change of any store; parked
	// follower pulls wait on it.
	sig journal.Signal

	stop chan struct{}
	done chan struct{}
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

// OpenPersist attaches the journal engine to the fabric: it recovers any
// durable state found under opts.Dir (resizing if the directory was
// written with a different shard count), attaches write-through journals
// to every shard, and starts the background compactor. Call before serving
// traffic.
func (f *Fabric) OpenPersist(opts PersistOptions) error {
	if f.persist.Load() != nil {
		return errors.New("fabric: persistence already open")
	}
	if opts.Dir == "" {
		return errors.New("fabric: persist dir required")
	}
	syncMode, err := journal.ParseSyncMode(opts.Fsync)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return err
	}
	n := len(f.shards)

	// A RESIZE checkpoint supersedes whatever the shard directories hold:
	// a previous resize crashed after checkpointing the merged state but
	// before recommitting it, so redo the commit from the checkpoint.
	merged, haveMerged, err := readResize(opts.Dir)
	if err != nil {
		return err
	}

	m, haveManifest, err := readFabricManifest(opts.Dir)
	if err != nil {
		return err
	}

	if (haveMerged || (haveManifest && m.Shards != n)) && f.nodeCount > 1 {
		return errors.New("fabric: resize-on-restore unsupported on a multi-node slice")
	}
	if !haveMerged && haveManifest && m.Shards != n {
		// Shard-count mismatch: recover the old layout read-only and merge
		// it into one state, checkpoint it, then recommit below.
		states := make([]server.SnapshotState, m.Shards)
		for i := 0; i < m.Shards; i++ {
			st, rec, err := journal.Open(shardDir(opts.Dir, i))
			if err != nil {
				return fmt.Errorf("fabric: recovering shard %d of old %d-shard layout: %w", i, m.Shards, err)
			}
			scratch := server.NewShard(f.cfg, i, m.Shards)
			err = scratch.RecoverFrom(st, rec)
			st.Close()
			if err != nil {
				return fmt.Errorf("fabric: recovering shard %d of old %d-shard layout: %w", i, m.Shards, err)
			}
			states[i] = scratch.ExportState()
		}
		st := mergeStates(states)
		data, err := server.EncodeSnapshot(st)
		if err != nil {
			return err
		}
		if err := journal.WriteFileAtomic(filepath.Join(opts.Dir, resizeName), data); err != nil {
			return err
		}
		merged, haveMerged = st, true
	}

	if err := writeFabricManifest(opts.Dir, fabricManifest{Version: fabricManifestVersion, Shards: n}); err != nil {
		return err
	}

	p := &persistState{opts: opts, syncMode: syncMode, stores: make([]*journal.Store, n)}
	f.persist.Store(p)
	if haveMerged {
		// Recommit the checkpointed state under the current layout. A boot
		// that cannot commit has no durability to offer: leave the engine
		// closed (the RESIZE checkpoint on disk still guards the state) so
		// the caller can retry OpenPersist after fixing the fault.
		if err := f.recommitLocked(merged); err != nil {
			f.persist.Store(nil)
			return err
		}
	} else {
		for i, sh := range f.shards {
			st, rec, err := journal.Open(shardDir(opts.Dir, i))
			if err != nil {
				closeStores(p.stores[:i])
				f.persist.Store(nil)
				return fmt.Errorf("fabric: opening shard %d store: %w", i, err)
			}
			if err := sh.RecoverFrom(st, rec); err != nil {
				st.Close()
				closeStores(p.stores[:i])
				f.persist.Store(nil)
				return fmt.Errorf("fabric: recovering shard %d: %w", i, err)
			}
			st.SetSync(p.syncMode, opts.FsyncInterval)
			st.SetSignal(&p.sig)
			p.stores[i] = st
		}
	}

	if opts.CompactInterval > 0 {
		p.stop = make(chan struct{})
		p.done = make(chan struct{})
		go f.compactLoop(p)
	}
	return nil
}

// replaceState replaces the fabric's durable state wholesale (the facade
// restore path): the incoming document is checkpointed to the RESIZE file,
// the shard stores are rebuilt from scratch — discarding stale journals
// AND stale retained-tally logs — and the checkpoint is dropped once the
// new layout is committed. A crash at any step boots into either the old
// state or the new one, never a mix.
func (f *Fabric) replaceState(st server.SnapshotState) error {
	p := f.persist.Load()
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	data, err := server.EncodeSnapshot(st)
	if err != nil {
		return err
	}
	if err := journal.WriteFileAtomic(filepath.Join(p.opts.Dir, resizeName), data); err != nil {
		return err
	}
	return f.recommitLocked(st)
}

// recommitLocked rebuilds the shard stores from scratch and commits st
// under the current layout. The RESIZE checkpoint holding st must already
// be durable — it is the recovery point until the final remove. On a
// mid-way failure the engine FENCES itself: journals detach, stores close,
// and a sticky error surfaces through healthz — because the checkpoint on
// disk supersedes the half-rebuilt stores, anything journaled after the
// failure would be silently discarded at the next boot, and an unjournaled
// memory-only fabric that says so is strictly more honest than that.
// Callers hold compactMu (or run before the compactor starts).
func (f *Fabric) recommitLocked(st server.SnapshotState) (err error) {
	p := f.persist.Load()
	defer func() {
		if err == nil {
			return
		}
		f.detachStoresLocked(p)
		p.mu.Lock()
		p.lastErr = fmt.Errorf("fabric: durability suspended at the restore checkpoint: %w", err)
		p.mu.Unlock()
	}()
	n := len(f.shards)
	f.detachStoresLocked(p)
	for i := 0; ; i++ {
		dir := shardDir(p.opts.Dir, i)
		if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) && i >= n {
			break
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	per := splitState(st, n)
	for i, sh := range f.shards {
		store, _, err := journal.Open(shardDir(p.opts.Dir, i))
		if err != nil {
			return fmt.Errorf("fabric: rebuilding shard %d store: %w", i, err)
		}
		store.SetSync(p.syncMode, p.opts.FsyncInterval)
		store.SetSignal(&p.sig)
		// ImportState marks the imported tallies dirty, so the compaction
		// below writes them into the fresh retained log.
		sh.ImportState(per[i])
		sh.AttachJournal(store)
		p.mu.Lock()
		p.stores[i] = store
		p.mu.Unlock()
	}
	for i, sh := range f.shards {
		if err := sh.CompactInto(p.stores[i], p.opts.Retention); err != nil {
			return fmt.Errorf("fabric: committing shard %d: %w", i, err)
		}
	}
	return os.Remove(filepath.Join(p.opts.Dir, resizeName))
}

func closeStores(stores []*journal.Store) {
	for _, st := range stores {
		if st != nil {
			st.Close()
		}
	}
}

func readResize(dir string) (server.SnapshotState, bool, error) {
	data, err := os.ReadFile(filepath.Join(dir, resizeName))
	if errors.Is(err, os.ErrNotExist) {
		return server.SnapshotState{}, false, nil
	}
	if err != nil {
		return server.SnapshotState{}, false, err
	}
	st, err := server.DecodeSnapshot(data)
	if err != nil {
		return st, false, fmt.Errorf("fabric: decoding resize checkpoint: %w", err)
	}
	return st, true, nil
}

func readFabricManifest(dir string) (fabricManifest, bool, error) {
	var m fabricManifest
	data, err := os.ReadFile(filepath.Join(dir, journal.ManifestName))
	if errors.Is(err, os.ErrNotExist) {
		return m, false, nil
	}
	if err != nil {
		return m, false, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, false, fmt.Errorf("fabric: decoding fabric manifest: %w", err)
	}
	if m.Version != fabricManifestVersion {
		return m, false, fmt.Errorf("fabric: manifest version %d, want %d", m.Version, fabricManifestVersion)
	}
	if m.Shards < 1 {
		return m, false, fmt.Errorf("fabric: manifest shard count %d out of range", m.Shards)
	}
	return m, true, nil
}

func writeFabricManifest(dir string, m fabricManifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return journal.WriteFileAtomic(filepath.Join(dir, journal.ManifestName), data)
}

// compactLoop is the background compactor.
func (f *Fabric) compactLoop(p *persistState) {
	defer close(p.done)
	t := time.NewTicker(p.opts.CompactInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			if err := f.CompactAll(); err != nil {
				p.mu.Lock()
				p.lastErr = err
				p.mu.Unlock()
			}
		}
	}
}

// detachStoresLocked detaches every shard's journal and closes its store.
// Store-slot writes go under p.mu so PersistErr can read them from another
// goroutine. Callers hold compactMu.
func (f *Fabric) detachStoresLocked(p *persistState) {
	for i, sh := range f.shards {
		sh.AttachJournal(nil)
		p.mu.Lock()
		st := p.stores[i]
		p.stores[i] = nil
		p.mu.Unlock()
		if st != nil {
			st.Close()
		}
	}
}

// CompactAll runs one compaction cycle on every shard: demote completed
// tasks past the retention window, snapshot the live state, truncate the
// journal. Cycles are serialized fabric-wide.
func (f *Fabric) CompactAll() error {
	p := f.persist.Load()
	if p == nil {
		return errors.New("fabric: persistence not open")
	}
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	var firstErr error
	fenced := false
	for i, sh := range f.shards {
		if p.stores[i] == nil {
			// A failed rebuild left this shard detached; the RESIZE
			// checkpoint on disk still guards its state.
			fenced = true
			continue
		}
		if err := sh.CompactInto(p.stores[i], p.opts.Retention); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fabric: compacting shard %d: %w", i, err)
		}
	}
	p.mu.Lock()
	if firstErr != nil {
		p.lastErr = firstErr
	} else if !fenced {
		// Every shard committed a fresh full snapshot of its live state:
		// whatever op a past journal write lost is durable again.
		p.lastErr = nil
	}
	p.mu.Unlock()
	return firstErr
}

// PersistErr reports the first durability error hit by any shard's journal
// or by the compactor, or nil. A non-nil value means the journal may be
// missing ops; the next successful compaction re-establishes durability
// from the full live state.
func (f *Fabric) PersistErr() error {
	p := f.persist.Load()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.lastErr != nil {
		return p.lastErr
	}
	for _, st := range p.stores {
		if st == nil {
			continue
		}
		if err := st.Err(); err != nil {
			return err
		}
	}
	return nil
}

// ClosePersist stops the compactor, detaches the write-through journals
// and closes the stores. The fabric keeps serving from memory.
func (f *Fabric) ClosePersist() error {
	p := f.persist.Swap(nil)
	if p == nil {
		return nil
	}
	if p.stop != nil {
		close(p.stop)
		<-p.done
	}
	p.compactMu.Lock()
	defer p.compactMu.Unlock()
	var firstErr error
	for i, sh := range f.shards {
		sh.AttachJournal(nil)
		p.mu.Lock()
		st := p.stores[i]
		p.stores[i] = nil
		p.mu.Unlock()
		if st == nil {
			continue
		}
		if err := st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
