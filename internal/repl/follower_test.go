package repl

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/retry"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
	"github.com/clamshell/clamshell/internal/wire"
)

// scriptedPrimary is a one-shard replication source: it bootstraps an
// empty journal, answers the next idleReplies pulls idle at once, and then
// holds every pull until release closes — a primary parking a caught-up
// pull that never gets news, and that ignores its own stop signal.
type scriptedPrimary struct {
	server.Core
	idleReplies int64
	pulls       atomic.Int64
	held        chan struct{} // receives once per held pull
	release     chan struct{}
}

func (p *scriptedPrimary) ReplRead(req wire.ReplPullRequest, _ <-chan struct{}) (wire.ReplChunk, error) {
	n := p.pulls.Add(1)
	if req.Gen == 0 {
		return wire.ReplChunk{Action: wire.ReplBootstrap, Shards: 1, Gen: 1}, nil
	}
	idle := wire.ReplChunk{Action: wire.ReplIdle, Shards: 1, Gen: req.Gen,
		Durable: req.WALOff, Appended: req.WALOff, RetSize: req.RetOff, RetEpoch: req.RetEpoch}
	if n > 1+p.idleReplies {
		p.held <- struct{}{}
		<-p.release
	}
	return idle, nil
}

// The follower never sleeps between pulls (the primary does the waiting),
// and Stop returns promptly even while the primary holds a pull open,
// without counting the aborted pull as a reconnect.
func TestFollowerPullsBackToBackAndStopsWhileHeld(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	const idleReplies = 200
	prim := &scriptedPrimary{
		Core:        server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1),
		idleReplies: idleReplies,
		held:        make(chan struct{}, 1),
		release:     make(chan struct{}),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := wire.NewServer(prim)
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	defer func() {
		close(prim.release)
		ln.Close()
		<-served
	}()

	fol, err := NewFollower(FollowerConfig{
		Addr:  ln.Addr().String(),
		Dir:   t.TempDir(),
		Retry: retry.Policy{Base: time.Millisecond, Cap: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	start := time.Now()
	ran := make(chan error, 1)
	go func() { ran <- fol.Run() }()

	// 200 idle answers: back to back they take milliseconds; a 20 ms idle
	// sleep between pulls would spread them over four seconds.
	select {
	case <-prim.held:
	case <-time.After(10 * time.Second):
		t.Fatalf("follower made %d pulls in 10s", prim.pulls.Load())
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("%d idle pulls took %v: the follower sleeps between pulls", idleReplies, took)
	}

	stopped := make(chan struct{})
	go func() {
		fol.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("Stop blocked while the primary held a pull")
	}
	if err := <-ran; err != nil {
		t.Fatalf("Run after Stop: %v", err)
	}
	if fol.Reconnects() != 0 || fol.Bootstraps() != 1 || !fol.Attached() {
		t.Fatalf("reconnects=%d bootstraps=%d attached=%v; want 0, 1, true",
			fol.Reconnects(), fol.Bootstraps(), fol.Attached())
	}
}
