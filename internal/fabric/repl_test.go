package fabric

import (
	"bytes"
	"fmt"
	"net"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/repl"
	"github.com/clamshell/clamshell/internal/retry"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
	"github.com/clamshell/clamshell/internal/wire"
)

// fakeClock is an explicitly advanced clock shared by the fabrics under
// test: durable timestamps (task completion, retention ages, replication
// lag) become deterministic instead of racing the wall clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// startWire serves the fabric over the wire protocol on a loopback
// listener with the replication ack barrier armed, returning the address
// and a stop function that drains and joins the server.
func startWire(t *testing.T, f *Fabric) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := wire.NewServer(f)
	srv.Barrier = f.ReplBarrier()
	srv.DrainTimeout = 2 * time.Second
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	var once sync.Once
	stop := func() {
		once.Do(func() {
			ln.Close()
			<-done
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

// dialWire connects a wire client to addr.
func dialWire(t *testing.T, addr string) *wire.Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	cl, err := wire.NewClient(conn)
	if err != nil {
		t.Fatalf("wire handshake: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// waitMatched polls until every shard's follower has fully matched the
// primary's durable frontier (WAL and retained log both mirrored) at a
// fabric-clock instant at or after minNs.
func waitMatched(t *testing.T, f *Fabric, minNs int64) {
	t.Helper()
	rp := f.repl.Load()
	if rp == nil {
		t.Fatal("replication not enabled")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		all := true
		for i := range rp.lastMatched {
			if rp.lastMatched[i].Load() < minNs || rp.lastMatched[i].Load() == 0 {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("follower never matched the durable frontier (positions %v)", rp.tracker.Positions())
}

// workRound drives every worker through one fetch (+submit when assigned)
// over the wire client, returning how many assignments were completed.
func workRound(t *testing.T, cl *wire.Client, workers []int, label int) int {
	t.Helper()
	done := 0
	for _, w := range workers {
		a, ok, err := cl.FetchTask(w)
		if err != nil {
			t.Fatalf("fetch(worker %d): %v", w, err)
		}
		if !ok {
			continue
		}
		labels := make([]int, len(a.Records))
		for i := range labels {
			labels[i] = label
		}
		if _, _, err := cl.Submit(w, a.TaskID, labels); err != nil {
			t.Fatalf("submit(worker %d, task %d): %v", w, a.TaskID, err)
		}
		done++
	}
	return done
}

// TestReplicationFailoverPromotion is the replication plane end to end:
// a persisted primary fabric serves a journal-shipping follower over the
// wire protocol with the ack barrier armed, survives a compaction rotation
// (forcing the follower through reset + re-bootstrap), exposes lag and
// shipping telemetry, and finally the follower's mirror directory is
// promoted — plain journal recovery, no file surgery — to a fabric whose
// snapshot is byte-identical to the primary's.
func TestReplicationFailoverPromotion(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	clk := newFakeClock()
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1, Now: clk.Now}
	dirP, dirF := t.TempDir(), t.TempDir()

	prim := New(cfg, 2)
	if err := prim.OpenPersist(PersistOptions{Dir: dirP, Fsync: "commit", Retention: 50 * time.Millisecond}); err != nil {
		t.Fatalf("OpenPersist(primary): %v", err)
	}
	t.Cleanup(func() { prim.ClosePersist() })
	if err := prim.EnableReplication(5 * time.Second); err != nil {
		t.Fatalf("EnableReplication: %v", err)
	}
	if err := prim.EnableReplication(5 * time.Second); err == nil {
		t.Fatal("double EnableReplication succeeded")
	}

	addr, stopWire := startWire(t, prim)

	fol, err := repl.NewFollower(repl.FollowerConfig{
		Addr:  addr,
		Dir:   dirF,
		Retry: retry.Policy{Base: 2 * time.Millisecond, Cap: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	folDone := make(chan error, 1)
	go func() { folDone <- fol.Run() }()
	t.Cleanup(func() { fol.Stop() })

	cl := dialWire(t, addr)

	// Phase 1: tasks across both shards, two workers grinding them down.
	var specs []server.TaskSpec
	for i := 0; i < 8; i++ {
		specs = append(specs, server.TaskSpec{
			Records: []string{fmt.Sprintf("rec-%d-a", i), fmt.Sprintf("rec-%d-b", i)},
			Classes: 2, Quorum: 1,
		})
	}
	ids, err := cl.SubmitTasks(specs)
	if err != nil || len(ids) != 8 {
		t.Fatalf("enqueue: ids=%v err=%v", ids, err)
	}
	var workers []int
	for _, name := range []string{"alice", "bob"} {
		w, err := cl.Join(name)
		if err != nil || w == 0 {
			t.Fatalf("join %s: id=%d err=%v", name, w, err)
		}
		workers = append(workers, w)
	}
	for r := 0; r < 4; r++ {
		workRound(t, cl, workers, 1)
	}
	waitMatched(t, prim, 1) // fully mirrored, any fabric-clock instant

	// Phase 2: age the completed tasks past retention and compact. The
	// rotation deletes the old WAL generation out from under the follower,
	// which must recover by re-bootstrapping onto the fresh snapshot and
	// the rewritten retained log.
	clk.Advance(time.Second)
	if err := prim.CompactAll(); err != nil {
		t.Fatalf("CompactAll: %v", err)
	}
	after := clk.Advance(time.Millisecond).UnixNano()
	for r := 0; r < 4; r++ {
		workRound(t, cl, workers, 0)
	}
	waitMatched(t, prim, after)
	if fol.Bootstraps() < 2 {
		t.Fatalf("follower bootstraps = %d, want >= 2 (initial seed + post-rotation)", fol.Bootstraps())
	}
	if fol.PulledBytes() == 0 || !fol.Attached() {
		t.Fatalf("follower pulled=%d attached=%v", fol.PulledBytes(), fol.Attached())
	}

	// Operator surfaces: healthz reports the role and live lag; /metrics
	// carries the replication families.
	hrec := httptest.NewRecorder()
	prim.ServeHTTP(hrec, httptest.NewRequest("GET", "/api/healthz", nil))
	hb := hrec.Body.String()
	if !strings.Contains(hb, `"role":"primary"`) || !strings.Contains(hb, "replication_lag_ms") {
		t.Fatalf("healthz missing replication fields: %s", hb)
	}
	mrec := httptest.NewRecorder()
	prim.ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	mb := mrec.Body.String()
	for _, fam := range []string{
		"clamshell_repl_follower_attached 1",
		"clamshell_repl_lag_ms",
		"clamshell_repl_lag_bytes",
		"clamshell_repl_shipped_bytes_total",
		"clamshell_repl_sync_degraded_total 0",
	} {
		if !strings.Contains(mb, fam) {
			t.Fatalf("/metrics missing %q:\n%s", fam, mb)
		}
	}

	// A stalled follower shows up as growing lag: stop the pulls, advance
	// the fabric clock, and the gauge reports exactly the stall.
	fol.Stop()
	if err := <-folDone; err != nil {
		t.Fatalf("follower run: %v", err)
	}
	clk.Advance(123 * time.Millisecond)
	lrec := httptest.NewRecorder()
	prim.ServeHTTP(lrec, httptest.NewRequest("GET", "/metrics", nil))
	lag := scrapeGauge(t, lrec.Body.String(), "clamshell_repl_lag_ms")
	if lag < 123 {
		t.Fatalf("clamshell_repl_lag_ms = %v after 123ms stall, want >= 123", lag)
	}

	if got := prim.ReplDegraded(); got != 0 {
		t.Fatalf("degraded acks = %d on a healthy link, want 0", got)
	}

	want, err := prim.Snapshot()
	if err != nil {
		t.Fatalf("primary snapshot: %v", err)
	}

	// Promote: the mirror directory is a valid persist directory; opening
	// it with the standard recovery path yields the primary's exact state.
	cl.Close()
	stopWire()
	promoted := New(cfg, 2)
	if err := promoted.OpenPersist(PersistOptions{Dir: dirF, Fsync: "commit"}); err != nil {
		t.Fatalf("OpenPersist(promoted mirror): %v", err)
	}
	t.Cleanup(func() { promoted.ClosePersist() })
	got, err := promoted.Snapshot()
	if err != nil {
		t.Fatalf("promoted snapshot: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("promoted snapshot differs from primary:\nprimary:\n%s\npromoted:\n%s", want, got)
	}
}

// scrapeGauge pulls one metric's value out of an exposition page.
func scrapeGauge(t *testing.T, page, name string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`)
	m := re.FindStringSubmatch(page)
	if m == nil {
		t.Fatalf("metric %s not found in page:\n%s", name, page)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s value %q: %v", name, m[1], err)
	}
	return v
}

// No timer sits on the replicated ack path: with a group-commit tick that
// never fires, a mutating ack still returns at once, because the barrier
// kicks the group commit and the parked follower pull wakes on the fsync.
// A timer dependency would show as a 5 s degraded ack.
func TestReplAckNeedsNoTimer(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1}
	prim := New(cfg, 2)
	if err := prim.OpenPersist(PersistOptions{Dir: t.TempDir(), Fsync: "group", FsyncInterval: time.Hour}); err != nil {
		t.Fatalf("OpenPersist: %v", err)
	}
	t.Cleanup(func() { prim.ClosePersist() })
	if err := prim.EnableReplication(5 * time.Second); err != nil {
		t.Fatalf("EnableReplication: %v", err)
	}
	addr, _ := startWire(t, prim)
	fol := startFollower(t, addr)
	waitMatched(t, prim, 1)

	cl := dialWire(t, addr)
	timed := func(what string, op func() error) {
		t.Helper()
		start := time.Now()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("%s ack took %v: the barrier waited on a timer", what, took)
		}
	}
	var ids []int
	timed("enqueue", func() (err error) {
		ids, err = cl.SubmitTasks([]server.TaskSpec{{Records: []string{"a", "b"}, Classes: 2, Quorum: 1}})
		return err
	})
	var w int
	timed("join", func() (err error) { w, err = cl.Join("alice"); return err })
	var a server.Assignment
	timed("fetch", func() (err error) {
		var ok bool
		if a, ok, err = cl.FetchTask(w); err == nil && !ok {
			err = fmt.Errorf("no assignment for task %v", ids)
		}
		return err
	})
	timed("submit", func() error {
		_, _, err := cl.Submit(w, a.TaskID, []int{1, 0})
		return err
	})
	if got := prim.ReplDegraded(); got != 0 {
		t.Fatalf("degraded acks = %d, want 0", got)
	}
	if lag := fol.LagBytes(); lag != 0 {
		t.Fatalf("follower lag = %d bytes after the acks, want 0", lag)
	}
}

// A caught-up pull is held open until the journal has news, ships that
// news in the same reply, gives up at its deadline, and is released at once
// when the server stops.
func TestReplPullParksUntilNews(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	prim := New(server.Config{WorkerTimeout: time.Hour}, 1)
	if err := prim.OpenPersist(PersistOptions{Dir: t.TempDir(), Fsync: "commit"}); err != nil {
		t.Fatalf("OpenPersist: %v", err)
	}
	t.Cleanup(func() { prim.ClosePersist() })
	caughtUp := func() wire.ReplPullRequest {
		rs := prim.persist.Load().stores[0].ReplState()
		return wire.ReplPullRequest{Gen: rs.Cur, WALOff: rs.Durable, RetOff: rs.RetainedSize, RetEpoch: rs.RetainedEpoch}
	}
	type reply struct {
		ch  wire.ReplChunk
		err error
	}
	pull := func(req wire.ReplPullRequest, stop <-chan struct{}) <-chan reply {
		out := make(chan reply, 1)
		go func() {
			ch, err := prim.ReplRead(req, stop)
			out <- reply{ch, err}
		}()
		return out
	}

	// Parked: nothing to ship, so no answer yet.
	got := pull(caughtUp(), nil)
	select {
	case r := <-got:
		t.Fatalf("caught-up pull answered at once (%+v, %v); want it parked", r.ch, r.err)
	case <-time.After(20 * time.Millisecond):
	}
	// News: the op journaled now ships in the parked pull's own reply.
	if _, err := prim.CoreEnqueue([]server.TaskSpec{{Records: []string{"x"}, Classes: 2, Quorum: 1}}); err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	select {
	case r := <-got:
		if r.err != nil || r.ch.Action != wire.ReplWAL || len(r.ch.Data) == 0 {
			t.Fatalf("woken pull = %+v, %v; want the new WAL bytes", r.ch, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked pull not woken by a journal append")
	}

	// No news: the pull answers idle at its deadline.
	start := time.Now()
	select {
	case r := <-pull(caughtUp(), nil):
		if r.err != nil || r.ch.Action != wire.ReplIdle {
			t.Fatalf("quiet pull = %+v, %v; want idle", r.ch, r.err)
		}
		if took := time.Since(start); took < replParkTimeout {
			t.Fatalf("quiet pull answered after %v, before its %v deadline", took, replParkTimeout)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("quiet pull never answered")
	}

	// Stopping: a closed stop channel releases the park immediately.
	stop := make(chan struct{})
	close(stop)
	start = time.Now()
	r := <-pull(caughtUp(), stop)
	if r.err != nil || r.ch.Action != wire.ReplIdle {
		t.Fatalf("stopped pull = %+v, %v; want idle", r.ch, r.err)
	}
	if took := time.Since(start); took >= replParkTimeout/2 {
		t.Fatalf("stopped pull took %v: it waited out the park", took)
	}
}

// Tearing down a primary or a follower does not wait for a parked pull:
// wire.Server.Shutdown and Follower.Stop both return well inside the
// drain timeout, and nothing is left running.
func TestReplShutdownWithParkedPull(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	prim := New(server.Config{WorkerTimeout: time.Hour}, 2)
	if err := prim.OpenPersist(PersistOptions{Dir: t.TempDir(), Fsync: "group"}); err != nil {
		t.Fatalf("OpenPersist: %v", err)
	}
	t.Cleanup(func() { prim.ClosePersist() })
	if err := prim.EnableReplication(5 * time.Second); err != nil {
		t.Fatalf("EnableReplication: %v", err)
	}
	const drain = 10 * time.Second
	prompt := func(what string, f func()) {
		t.Helper()
		start := time.Now()
		f()
		if took := time.Since(start); took > drain/5 {
			t.Fatalf("%s took %v with a pull parked (drain timeout %v)", what, took, drain)
		}
	}

	// Follower side: Stop aborts the pull the primary is holding.
	addr, _ := startWire(t, prim)
	fol := startFollower(t, addr)
	waitMatched(t, prim, 1)
	time.Sleep(10 * time.Millisecond) // the next pull is parked by now
	prompt("Follower.Stop", fol.Stop)

	// Primary side: Shutdown releases the parked pull of a live follower.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := wire.NewServer(prim)
	srv.Barrier = prim.ReplBarrier()
	srv.DrainTimeout = drain
	served := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(served)
	}()
	fol = startFollower(t, ln.Addr().String())
	waitMatched(t, prim, 1)
	time.Sleep(10 * time.Millisecond)
	prompt("wire.Server.Shutdown", func() {
		ln.Close()
		<-served
	})
	prompt("Follower.Stop after primary loss", fol.Stop)
}

// startFollower runs a follower of the primary at addr into a fresh
// directory, stopped (and its Run error checked) at cleanup.
func startFollower(t *testing.T, addr string) *repl.Follower {
	t.Helper()
	fol, err := repl.NewFollower(repl.FollowerConfig{
		Addr:  addr,
		Dir:   t.TempDir(),
		Retry: retry.Policy{Base: time.Millisecond, Cap: 10 * time.Millisecond},
	})
	if err != nil {
		t.Fatalf("NewFollower: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- fol.Run() }()
	t.Cleanup(func() {
		fol.Stop()
		if err := <-done; err != nil {
			t.Errorf("follower run: %v", err)
		}
	})
	return fol
}
