package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/repl"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// The topologies under test, assembled in-process from the constructors
// cmd/clamshell-server uses and reached only over loopback TCP: a node
// (fabric + wire listener + HTTP listener), optionally journaled,
// optionally gating acks on a live follower, optionally behind a router.
// Intervals are the production defaults (5 ms group commit, 20 ms follower
// idle poll, 5 s replication barrier, 2 min worker timeout).

const (
	persistRetention = 2 * time.Second
	persistCompact   = 2 * time.Second
	replBarrier      = fabric.DefaultBarrierTimeout
)

type topology struct {
	w   workload
	dir string // this boot's scratch directory (persist dirs live under it)

	fab      *fabric.Fabric
	router   *fabric.Router
	remotes  []*fabric.RemoteShard
	follower *repl.Follower

	nodeWire   string // node's wire address: set-up, verification, replication
	nodeHTTP   string // node's HTTP base URL: costs, snapshot, http_mem traffic
	clientWire string // where measured wire clients dial (the router on routed_repl)

	mu        sync.Mutex
	serveErrs []error
	closers   []func() // run in reverse order by shutdown
	wg        sync.WaitGroup
}

// workRoot is where scratch directories are made: inside the checkout,
// under the ignored build directory, never the system temp dir.
func workRoot() string {
	if d := os.Getenv("CLAMSHELL_BENCH_WORK"); d != "" {
		return d
	}
	return filepath.Join(".bench_build", "work")
}

func (t *topology) persistDir() string  { return filepath.Join(t.dir, "node") }
func (t *topology) followerDir() string { return filepath.Join(t.dir, "follower") }

func (t *topology) noteErr(err error) {
	t.mu.Lock()
	t.serveErrs = append(t.serveErrs, err)
	t.mu.Unlock()
}

// serveWire runs a wire server for core on an ephemeral loopback port and
// returns its address; the listener is closed (draining its connections)
// by shutdown.
func (t *topology) serveWire(core server.Core, barrier func()) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ws := wire.NewServer(core)
	ws.Barrier = barrier
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := ws.Serve(l); err != nil && !wire.IsClosed(err) {
			t.noteErr(fmt.Errorf("wire server: %w", err))
		}
	}()
	t.closers = append(t.closers, func() { l.Close() })
	return l.Addr().String(), nil
}

func (t *topology) serveHTTP(h http.Handler) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
			t.noteErr(fmt.Errorf("http server: %w", err))
		}
	}()
	t.closers = append(t.closers, func() { srv.Close() })
	return "http://" + l.Addr().String(), nil
}

// boot starts w's node (and router) in a fresh scratch directory. The
// follower is started separately, after the backlog is loaded, the way an
// operator attaches a replica to a node that already holds state.
func boot(w workload) (t *topology, err error) {
	if err := os.MkdirAll(workRoot(), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot(), w.name+"-")
	if err != nil {
		return nil, err
	}
	t = &topology{w: w, dir: dir}
	defer func() {
		if err != nil {
			t.shutdown()
		}
	}()

	t.fab = fabric.NewNode(server.Config{SpeculationLimit: 1}, w.shards, 0, 1)
	if w.durable {
		err = t.fab.OpenPersist(fabric.PersistOptions{
			Dir: t.persistDir(), Retention: persistRetention, CompactInterval: persistCompact, Fsync: "group",
		})
		if err != nil {
			return t, fmt.Errorf("opening persistence: %w", err)
		}
		t.closers = append(t.closers, func() {
			if err := t.fab.ClosePersist(); err != nil {
				t.noteErr(fmt.Errorf("closing persistence: %w", err))
			}
		})
	}
	if w.repl {
		if err = t.fab.EnableReplication(replBarrier); err != nil {
			return t, err
		}
	}
	if t.nodeWire, err = t.serveWire(t.fab, t.fab.ReplBarrier()); err != nil {
		return t, err
	}
	if t.nodeHTTP, err = t.serveHTTP(t.fab); err != nil {
		return t, err
	}
	t.clientWire = t.nodeWire
	if w.routed {
		t.remotes = []*fabric.RemoteShard{fabric.NewRemoteShard(t.nodeWire, fabric.RemoteOptions{})}
		t.router = fabric.NewRouter(t.remotes, nil)
		t.closers = append(t.closers, func() {
			for _, r := range t.remotes {
				r.Close()
			}
		})
		if t.clientWire, err = t.serveWire(t.router, nil); err != nil {
			return t, err
		}
	}
	return t, nil
}

// startFollower attaches a journal-shipping follower and waits until it
// durably holds everything the node has journaled.
func (t *topology) startFollower() error {
	fol, err := repl.NewFollower(repl.FollowerConfig{Addr: t.nodeWire, Dir: t.followerDir()})
	if err != nil {
		return err
	}
	t.follower = fol
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := fol.Run(); err != nil {
			t.noteErr(fmt.Errorf("follower: %w", err))
		}
	}()
	// Stop before the node's listener closes, or the follower would spend
	// the shutdown re-dialing a dead address.
	t.closers = append(t.closers, fol.Stop)
	return t.quiesceRepl()
}

// quiesceRepl waits for the follower to catch up with the node's journals.
func (t *topology) quiesceRepl() error {
	deadline := time.Now().Add(10 * time.Second)
	for !t.follower.Attached() || !t.fab.ReplTracker().Attached() {
		if time.Now().After(deadline) {
			return errors.New("follower never attached")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The barrier returns once the follower's acknowledged offsets cover
	// everything appended so far; the follower's own lag figure settles on
	// its next pull.
	t.fab.ReplBarrier()()
	for t.follower.LagBytes() != 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("follower still %d bytes behind", t.follower.LagBytes())
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// shutdown stops everything boot and startFollower started, waits for
// their goroutines, and removes the scratch directory. It reports the
// first error any server loop hit while it ran.
func (t *topology) shutdown() error {
	for i := len(t.closers) - 1; i >= 0; i-- {
		t.closers[i]()
	}
	t.closers = nil
	t.wg.Wait()
	if err := os.RemoveAll(t.dir); err != nil {
		t.noteErr(err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return errors.Join(t.serveErrs...)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil // compaction deleted a generation mid-walk
			}
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}
