package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/faultwire"
	"github.com/clamshell/clamshell/internal/repl"
	"github.com/clamshell/clamshell/internal/retry"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
)

// chaosOp is one driver step: run against a core, report the comparable
// result and whether it is definitive (false = transient unavailability,
// retry the same op).
type chaosOp func(c server.Core) (string, bool)

// TestChaosFailover is the fabric's crash discipline end to end: a router
// drives a persisted, replicated primary over a fault-injected link
// (seeded delays, drops, torn writes, duplicate deliveries) while a
// follower mirrors the journal over a clean link. Mid-load the primary is
// killed and the follower's mirror is promoted by plain journal recovery.
// Every op the router saw acknowledged must survive: the driver replays
// only its unacknowledged tail, and the promoted fabric's snapshot must be
// byte-identical to a never-crashed reference fabric fed exactly the
// acknowledged sequence. Runs under -race in CI (chaos smoke).
func TestChaosFailover(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	clk := newFakeClock()
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1, Now: clk.Now}
	dirP, dirF := t.TempDir(), t.TempDir()

	// Primary: persisted, replicated, behind a wire server with the ack
	// barrier armed (startWire does that).
	prim := New(cfg, 2)
	if err := prim.OpenPersist(PersistOptions{Dir: dirP, Fsync: "commit"}); err != nil {
		t.Fatalf("OpenPersist(primary): %v", err)
	}
	t.Cleanup(func() { prim.ClosePersist() })
	if err := prim.EnableReplication(5 * time.Second); err != nil {
		t.Fatalf("EnableReplication: %v", err)
	}
	addr, stopWire := startWire(t, prim)

	// Follower on a clean link: replication integrity is the invariant
	// under test, so only the router's link takes faults.
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Addr:  addr,
		Dir:   dirF,
		Retry: retry.Policy{Base: time.Millisecond, Cap: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	folDone := make(chan error, 1)
	go func() { folDone <- fol.Run() }()
	t.Cleanup(func() { fol.Stop() })

	// The router's link to the primary: clean during setup, fault-injected
	// once the load phase starts.
	fw := faultwire.New(faultwire.Config{
		Seed:      42,
		DelayProb: 0.15, MaxDelay: 2 * time.Millisecond,
		DropProb: 0.12, TornProb: 0.08, DupProb: 0.08,
	}, nil)
	var chaos atomic.Bool
	dial := func(a string) (net.Conn, error) {
		if chaos.Load() {
			return fw.Dial(a)
		}
		return net.Dial("tcp", a)
	}
	rs := NewRemoteShard(addr, RemoteOptions{
		Dial:             dial,
		Retry:            retry.Policy{MaxAttempts: 6, Base: time.Millisecond, Cap: 5 * time.Millisecond, Deadline: 2 * time.Second},
		BreakerThreshold: 10,
		BreakerCooldown:  20 * time.Millisecond,
	})
	t.Cleanup(rs.Close)
	router := NewRouter([]*RemoteShard{rs}, clk.Now)

	// The never-crashed reference receives exactly the acknowledged ops.
	ref := New(cfg, 2)
	refCore := server.Core(ref)

	// Phase 0, fault-free: joins and enqueues (the non-idempotent ops).
	names := []string{"alice", "bob"}
	workers := make([]int, len(names))
	for i, name := range names {
		w := router.CoreJoin(name)
		if w == 0 {
			t.Fatalf("join %s failed", name)
		}
		if got := ref.CoreJoin(name); got != w {
			t.Fatalf("reference join diverged: %d vs %d", got, w)
		}
		workers[i] = w
	}
	var specs []server.TaskSpec
	for i := 0; i < 14; i++ {
		specs = append(specs, server.TaskSpec{
			Records: []string{fmt.Sprintf("payload-%d-a", i), fmt.Sprintf("payload-%d-b", i)},
			Classes: 2, Quorum: 1,
		})
	}
	ids, err := router.CoreEnqueue(specs)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	refIDs, err := ref.CoreEnqueue(specs)
	if err != nil || fmt.Sprint(refIDs) != fmt.Sprint(ids) {
		t.Fatalf("reference enqueue diverged: %v vs %v (err %v)", refIDs, ids, err)
	}

	// Phase 1, faults on: idempotent grinding ops only. Fetch re-delivers
	// the in-flight assignment and submit re-acknowledges duplicates, so a
	// lost response retried (on the primary or, after the kill, on the
	// promoted follower) converges instead of double-applying.
	chaos.Store(true)
	rs.Close() // drop the clean-phase connection; redials go through faultwire

	cur := make(map[int]int) // worker index -> last fetched task (0 = none)
	fetchOp := func(wi int) chaosOp {
		return func(c server.Core) (string, bool) {
			w := workers[wi]
			a, disp := c.CoreFetch(w)
			if disp == server.FetchUnavailable {
				return "", false
			}
			cur[wi] = a.TaskID
			return fmt.Sprintf("fetch %s disp=%d task=%d", names[wi], disp, a.TaskID), true
		}
	}
	submitOp := func(wi int) chaosOp {
		return func(c server.Core) (string, bool) {
			task := cur[wi]
			if task == 0 {
				return fmt.Sprintf("submit %s idle", names[wi]), true
			}
			rep, cerr := c.CoreSubmit(workers[wi], task, []int{task % 2, (task + 1) % 2})
			if cerr != nil && errors.Is(cerr.Err, server.ErrUnavailable) {
				return "", false
			}
			if cerr != nil {
				return fmt.Sprintf("submit %s task=%d err=%v", names[wi], task, cerr.Err), true
			}
			// Terminated is deliberately not compared: a duplicate
			// re-acknowledgement reports acceptance without re-stating
			// termination, and both are honest acks of the same state.
			return fmt.Sprintf("submit %s task=%d acc=%v", names[wi], task, rep.Accepted), true
		}
	}
	hbOp := func(wi int) chaosOp {
		return func(c server.Core) (string, bool) {
			ok := c.CoreHeartbeat(workers[wi])
			if _, viaRouter := c.(*Router); viaRouter && !ok {
				return "", false // our workers exist: false means unreachable
			}
			return fmt.Sprintf("hb %s ok=%v", names[wi], ok), true
		}
	}

	var ops []chaosOp
	for round := 0; round < 14; round++ {
		for wi := range workers {
			ops = append(ops, fetchOp(wi), submitOp(wi), hbOp(wi))
		}
	}
	killAt := len(ops) / 2

	var promoted *Fabric
	target := server.Core(router)
	for i, op := range ops {
		if i == killAt {
			// Kill the primary mid-load: drain the wire server and drop
			// its listener. Everything acknowledged so far is
			// follower-durable (the ack barrier saw to it).
			stopWire()
		}
		var res string
		for {
			r, definitive := op(target)
			if definitive {
				res = r
				break
			}
			if i >= killAt && promoted == nil {
				// The primary is gone: promote the follower's mirror by
				// plain journal recovery and point the driver at it. A
				// crash drops worker sessions by design, so the reference
				// goes through the same reset — its acked durable state
				// restored into a fresh fabric — and the workers rejoin on
				// both sides; the unacknowledged op is then retried.
				fol.Stop()
				if err := <-folDone; err != nil {
					t.Fatalf("follower run: %v", err)
				}
				promoted = New(cfg, 2)
				if err := promoted.OpenPersist(PersistOptions{Dir: dirF, Fsync: "commit"}); err != nil {
					t.Fatalf("OpenPersist(promoted mirror): %v", err)
				}
				t.Cleanup(func() { promoted.ClosePersist() })
				acked, err := ref.Snapshot()
				if err != nil {
					t.Fatalf("acked reference snapshot: %v", err)
				}
				ref = New(cfg, 2)
				if err := ref.Restore(acked); err != nil {
					t.Fatalf("restoring acked state into fresh reference: %v", err)
				}
				refCore = ref
				for wi, name := range names {
					wP := promoted.CoreJoin(name)
					wR := ref.CoreJoin(name)
					if wP == 0 || wP != wR {
						t.Fatalf("post-promotion rejoin diverged: promoted=%d reference=%d", wP, wR)
					}
					workers[wi] = wP
					cur[wi] = 0 // in-flight assignments fell back to the queue
				}
				target = promoted
			}
		}
		refRes, ok := op(refCore)
		if !ok {
			t.Fatalf("reference op %d not definitive", i)
		}
		if res != refRes {
			t.Fatalf("op %d diverged from reference:\nfabric:    %s\nreference: %s", i, res, refRes)
		}
	}
	if promoted == nil {
		t.Fatal("primary kill never forced a promotion")
	}
	if got := prim.ReplDegraded(); got != 0 {
		t.Fatalf("degraded acks = %d on a clean follower link, want 0", got)
	}
	st := fw.Stats()
	if st.Delays+st.Drops+st.Torn+st.Dups == 0 {
		t.Fatalf("fault injector fired nothing (stats %+v); the chaos phase tested a clean link", st)
	}
	if st.Drops+st.Torn > 0 && rs.Reconnects() == 0 {
		t.Fatalf("connections were killed (%+v) but the remote shard never re-dialed", st)
	}

	// Zero acked-op loss, stated as bytes: the promoted fabric equals the
	// reference that was fed exactly the acknowledged sequence.
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatalf("reference snapshot: %v", err)
	}
	got, err := promoted.Snapshot()
	if err != nil {
		t.Fatalf("promoted snapshot: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("promoted snapshot differs from the acked reference:\nreference:\n%s\npromoted:\n%s", want, got)
	}
	if len(ids) == 0 {
		t.Fatal("no tasks enqueued") // keeps ids live for the trace above
	}
}
