package wire

import (
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
)

// gatedReplCore is a shard core whose replication reads block on a gate,
// simulating a follower pull in flight while the listener goes away.
type gatedReplCore struct {
	server.Core
	arrived chan struct{}
	release chan struct{}
}

func (g *gatedReplCore) ReplRead(req ReplPullRequest, _ <-chan struct{}) (ReplChunk, error) {
	g.arrived <- struct{}{}
	<-g.release
	return ReplChunk{Action: ReplIdle, Shards: 1, Gen: req.Gen, Durable: req.WALOff, Appended: req.WALOff}, nil
}

// Closing the listener mid-stream must drain in-flight requests — the
// blocked replication pull still gets its response before the session
// closes — rather than abandoning the connections with unsent replies.
func TestServeDrainsConnectionsOnListenerClose(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	core := &gatedReplCore{
		Core:    server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1),
		arrived: make(chan struct{}),
		release: make(chan struct{}),
	}
	srv := NewServer(core)
	srv.DrainTimeout = 10 * time.Second
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	if _, err := cl.Join("alice"); err != nil {
		t.Fatalf("join: %v", err)
	}

	// Start a replication pull that blocks server-side, so the listener
	// close happens with the stream active.
	pullDone := make(chan error, 1)
	go func() {
		_, err := cl.ReplPull(ReplPullRequest{Shard: 0, Gen: 1, WALOff: 8, RetOff: 8, Max: 1 << 16})
		pullDone <- err
	}()
	// Wait until the pull is actually blocked in the server's handler, not
	// merely written by the client.
	select {
	case <-core.arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("replication pull never reached the handler")
	}

	if err := ln.Close(); err != nil {
		t.Fatalf("close listener: %v", err)
	}
	// Serve is now draining; the session must stay open while its request
	// is still in flight.
	select {
	case err := <-serveErr:
		t.Fatalf("Serve returned %v before the in-flight pull finished", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(core.release)
	// The drain must deliver the pull's response: the session closes only
	// after its in-flight send completes.
	select {
	case err := <-pullDone:
		if err != nil {
			t.Fatalf("in-flight pull abandoned by shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight pull hung through shutdown")
	}
	select {
	case err := <-serveErr:
		if !IsClosed(err) {
			t.Fatalf("Serve returned %v, want listener-closed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after listener close")
	}
	// The drained session is really closed: the next call fails.
	if _, err := cl.Join("bob"); err == nil {
		t.Fatal("call succeeded on a drained session")
	}
	// New connections are refused after shutdown even if handed to
	// ServeConn directly.
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	done := make(chan struct{})
	go func() { srv.ServeConn(c2); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("ServeConn accepted a connection after shutdown")
	}
}

// killCore closes the transport underneath the server after a set number
// of heartbeats — a connection dying between a batch's sub-ops.
type killCore struct {
	server.Core
	conn  net.Conn
	after int32
}

func (k *killCore) CoreHeartbeat(id int) bool {
	if atomic.AddInt32(&k.after, -1) == 0 {
		_ = k.conn.Close()
	}
	return k.Core.CoreHeartbeat(id)
}

// A v2 batch whose connection dies mid-batch must resolve every slot with
// the poisoned error — no slot left nil, no goroutine hung on a reply that
// will never come.
func TestBatchMidBatchConnectionKill(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	cliConn, srvConn := net.Pipe()
	core := &killCore{Core: sh, conn: srvConn, after: 5}
	go NewServer(core).ServeConn(srvConn)
	cl, err := NewClient(cliConn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cl.Close()
	w := sh.CoreJoin("alice")

	b := cl.NewBatch()
	slots := make([]*OpResult, 10)
	for i := range slots {
		slots[i] = b.Heartbeat(w)
	}
	err = b.Do()
	if err == nil {
		t.Fatal("Do succeeded across a killed connection")
	}
	if !errors.Is(err, ErrPoisoned) {
		t.Fatalf("Do error = %v, want ErrPoisoned", err)
	}
	for i, s := range slots {
		if s.Err == nil {
			t.Fatalf("slot %d resolved nil after mid-batch kill", i)
		}
		if !errors.Is(s.Err, ErrPoisoned) {
			t.Fatalf("slot %d error = %v, want ErrPoisoned", i, s.Err)
		}
	}
	// The client is sticky-poisoned: later calls fail fast, they don't hang.
	if _, err := cl.Join("bob"); !errors.Is(err, ErrPoisoned) {
		t.Fatalf("post-kill call error = %v, want ErrPoisoned", err)
	}
}
