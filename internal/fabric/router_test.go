package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/retry"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
)

// remoteOpts is the fast-failing retry schedule the router tests use so a
// dead node is detected in milliseconds, not the production seconds.
func remoteOpts() RemoteOptions {
	return RemoteOptions{
		Retry:            retry.Policy{MaxAttempts: 3, Base: time.Millisecond, Cap: 5 * time.Millisecond, Deadline: 250 * time.Millisecond},
		BreakerThreshold: 2,
		BreakerCooldown:  time.Minute,
	}
}

// driveCore runs one deterministic workload against a server.Core: joins,
// a task batch, grinding rounds, redundant heartbeats, one leave. Every
// result feeds the returned trace so two cores can be compared op by op.
func driveCore(t *testing.T, c server.Core) []string {
	t.Helper()
	var trace []string
	var workers []int
	for i := 0; i < 4; i++ {
		id := c.CoreJoin(fmt.Sprintf("worker-%d", i))
		if id == 0 {
			t.Fatalf("join %d failed", i)
		}
		workers = append(workers, id)
		trace = append(trace, fmt.Sprintf("join=%d", id))
	}
	var specs []server.TaskSpec
	for i := 0; i < 10; i++ {
		specs = append(specs, server.TaskSpec{
			Records: []string{fmt.Sprintf("doc-%d-x", i), fmt.Sprintf("doc-%d-y", i)},
			Classes: 2, Quorum: 1,
		})
	}
	ids, err := c.CoreEnqueue(specs)
	if err != nil {
		t.Fatalf("enqueue: %v", err)
	}
	trace = append(trace, fmt.Sprintf("ids=%v", ids))
	for round := 0; round < 6; round++ {
		for _, w := range workers {
			a, disp := c.CoreFetch(w)
			trace = append(trace, fmt.Sprintf("fetch w%d disp=%d task=%d", w, disp, a.TaskID))
			if disp != server.FetchAssigned {
				continue
			}
			labels := make([]int, len(a.Records))
			for i := range labels {
				labels[i] = (a.TaskID + round) % 2
			}
			rep, cerr := c.CoreSubmit(w, a.TaskID, labels)
			if cerr != nil {
				t.Fatalf("submit w%d task %d: %v", w, a.TaskID, cerr.Err)
			}
			trace = append(trace, fmt.Sprintf("submit w%d task=%d acc=%v term=%v", w, a.TaskID, rep.Accepted, rep.Terminated))
		}
		for _, w := range workers {
			if !c.CoreHeartbeat(w) {
				t.Fatalf("heartbeat w%d failed", w)
			}
		}
	}
	c.CoreLeave(workers[3])
	trace = append(trace, fmt.Sprintf("left=%d hb=%v", workers[3], c.CoreHeartbeat(workers[3])))
	for _, id := range ids {
		st, ok := c.CoreResult(id)
		trace = append(trace, fmt.Sprintf("result %d ok=%v state=%s consensus=%v", id, ok, st.State, st.Consensus))
	}
	return trace
}

// TestRouterParityRemoteShard extends the transport-parity ladder to the
// routed fabric: the same workload driven through Router -> RemoteShard ->
// wire -> fabric must produce the exact op results and the byte-identical
// snapshot of the fabric driven directly. A frozen clock keeps completion
// timestamps out of the comparison.
func TestRouterParityRemoteShard(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	clk := newFakeClock()
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1, Now: clk.Now}

	ref := New(cfg, 4)
	refTrace := driveCore(t, ref)
	want, err := ref.Snapshot()
	if err != nil {
		t.Fatalf("reference snapshot: %v", err)
	}

	node := New(cfg, 4)
	addr, _ := startWire(t, node)
	rs := NewRemoteShard(addr, remoteOpts())
	t.Cleanup(rs.Close)
	rt := NewRouter([]*RemoteShard{rs}, clk.Now)
	gotTrace := driveCore(t, rt)

	if len(refTrace) != len(gotTrace) {
		t.Fatalf("trace lengths differ: direct %d, routed %d", len(refTrace), len(gotTrace))
	}
	for i := range refTrace {
		if refTrace[i] != gotTrace[i] {
			t.Fatalf("op %d diverged:\ndirect: %s\nrouted: %s", i, refTrace[i], gotTrace[i])
		}
	}
	got, err := rt.Snapshot()
	if err != nil {
		t.Fatalf("routed snapshot: %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("routed snapshot differs from direct:\ndirect:\n%s\nrouted:\n%s", want, got)
	}
}

// TestRouterTwoNodeFabric runs a real two-node fabric: each node owns its
// stripe of the global shard space behind its own wire server, and the
// router splits every op by the universal (id-1) mod nodeCount rule. The
// test pins the routing invariants end to end: workers only ever receive
// tasks from their own node, every id stays resolvable through the router,
// and the merged snapshot accounts for every task.
func TestRouterTwoNodeFabric(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	clk := newFakeClock()
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1, Now: clk.Now}

	var shards []*RemoteShard
	for i := 0; i < 2; i++ {
		node := NewNode(cfg, 2, i, 2)
		addr, _ := startWire(t, node)
		rs := NewRemoteShard(addr, remoteOpts())
		t.Cleanup(rs.Close)
		shards = append(shards, rs)
	}
	rt := NewRouter(shards, clk.Now)

	var workers []int
	for i := 0; i < 4; i++ {
		id := rt.CoreJoin(fmt.Sprintf("w%d", i))
		if id == 0 {
			t.Fatalf("join %d failed", i)
		}
		workers = append(workers, id)
	}
	var specs []server.TaskSpec
	for i := 0; i < 12; i++ {
		specs = append(specs, server.TaskSpec{
			Records: []string{fmt.Sprintf("item-%d", i)},
			Classes: 2, Quorum: 1,
		})
	}
	ids, err := rt.CoreEnqueue(specs)
	if err != nil || len(ids) != 12 {
		t.Fatalf("enqueue: ids=%v err=%v", ids, err)
	}

	completed := make(map[int]bool)
	for round := 0; round < 30 && len(completed) < 12; round++ {
		for _, w := range workers {
			a, disp := rt.CoreFetch(w)
			if disp != server.FetchAssigned {
				continue
			}
			// No cross-node work: a worker's task comes from its own node.
			if (a.TaskID-1)%2 != (w-1)%2 {
				t.Fatalf("worker %d (node %d) was handed task %d (node %d)", w, (w-1)%2, a.TaskID, (a.TaskID-1)%2)
			}
			rep, cerr := rt.CoreSubmit(w, a.TaskID, []int{1})
			if cerr != nil {
				t.Fatalf("submit w%d task %d: %v", w, a.TaskID, cerr.Err)
			}
			if rep.Terminated {
				completed[a.TaskID] = true
			}
			if st, ok := rt.CoreResult(a.TaskID); ok && st.State == "complete" {
				completed[a.TaskID] = true
			}
		}
	}
	for _, id := range ids {
		st, ok := rt.CoreResult(id)
		if !ok {
			t.Fatalf("task %d unresolvable through the router", id)
		}
		if st.State != "complete" {
			t.Fatalf("task %d state %q after grinding, want complete", id, st.State)
		}
	}

	data, err := rt.Snapshot()
	if err != nil {
		t.Fatalf("merged snapshot: %v", err)
	}
	st, err := server.DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decoding merged snapshot: %v", err)
	}
	if got := len(st.Tasks) + len(st.Retained); got != 12 {
		t.Fatalf("merged snapshot holds %d tasks, want 12", got)
	}

	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/api/healthz", nil))
	hb := rec.Body.String()
	if !strings.Contains(hb, `"role":"router"`) || !strings.Contains(hb, `"nodes_reachable":2`) {
		t.Fatalf("router healthz: %s", hb)
	}
}

// A routed batch costs one enqueue frame (and so one replication barrier)
// per owning node, not one per task, and its ids still come back in
// request order: the i-th id names the task holding the i-th spec.
func TestRouterEnqueueBatchesPerNode(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1}
	var nodes []*Fabric
	var shards []*RemoteShard
	for i := 0; i < 2; i++ {
		node := NewNode(cfg, 2, i, 2)
		addr, _ := startWire(t, node)
		rs := NewRemoteShard(addr, remoteOpts())
		t.Cleanup(rs.Close)
		nodes = append(nodes, node)
		shards = append(shards, rs)
	}
	rt := NewRouter(shards, nil)

	var specs []server.TaskSpec
	for i := 0; i < 25; i++ {
		specs = append(specs, server.TaskSpec{
			Records: []string{fmt.Sprintf("batch-%d-a", i), fmt.Sprintf("batch-%d-b", i)},
			Classes: 2, Quorum: 1,
		})
	}
	ids, err := rt.CoreEnqueue(specs)
	if err != nil || len(ids) != len(specs) {
		t.Fatalf("enqueue: ids=%v err=%v", ids, err)
	}
	perNode := make([]int, len(nodes))
	for i, id := range ids {
		perNode[(id-1)%len(nodes)]++
		st, ok := rt.CoreResult(id)
		if !ok {
			t.Fatalf("id %d (spec %d) unresolvable through the router", id, i)
		}
		if fmt.Sprint(st.Records) != fmt.Sprint(specs[i].Records) {
			t.Fatalf("id %d holds records %v, want spec %d's %v", id, st.Records, i, specs[i].Records)
		}
	}
	for n, node := range nodes {
		if perNode[n] == 0 {
			t.Fatalf("node %d received none of the 25 tasks; the case does not exercise two nodes", n)
		}
		if got := node.Obs().Wire.Count(server.OpKindEnqueue); got != 1 {
			t.Fatalf("node %d served %d enqueue frames for %d tasks, want 1", n, got, perNode[n])
		}
	}
}

// TestRouterFailFast pins the degraded mode: with a node gone, calls
// return in-band unavailability instead of hanging, the circuit breaker
// opens after the configured failures, and joins fail over to the
// surviving node.
func TestRouterFailFast(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	clk := newFakeClock()
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1, Now: clk.Now}

	live := NewNode(cfg, 2, 0, 2)
	liveAddr, _ := startWire(t, live)

	dead := NewNode(cfg, 2, 1, 2)
	deadAddr, stopDead := startWire(t, dead)

	shards := []*RemoteShard{
		NewRemoteShard(liveAddr, remoteOpts()),
		NewRemoteShard(deadAddr, remoteOpts()),
	}
	t.Cleanup(shards[0].Close)
	t.Cleanup(shards[1].Close)
	rt := NewRouter(shards, clk.Now)

	// Seed one worker per node while both are up.
	w1 := rt.CoreJoin("one") // round-robin starts on node 0
	w2 := rt.CoreJoin("two")
	if w1 == 0 || w2 == 0 {
		t.Fatalf("seed joins: %d %d", w1, w2)
	}
	if (w1-1)%2 == (w2-1)%2 {
		t.Fatalf("round-robin joins landed on one node: %d %d", w1, w2)
	}
	stopDead()

	// The dead node's worker reads as gone; its ops resolve fast and
	// in-band, never hanging a router goroutine.
	deadWorker, liveWorker := w1, w2
	if (w1-1)%2 == 0 {
		deadWorker, liveWorker = w2, w1
	}
	start := time.Now()
	if rt.CoreHeartbeat(deadWorker) {
		t.Fatal("heartbeat to dead node succeeded")
	}
	if _, disp := rt.CoreFetch(deadWorker); disp != server.FetchUnavailable {
		t.Fatalf("fetch from dead node: disp=%d, want unavailable", disp)
	}
	if _, cerr := rt.CoreSubmit(deadWorker, 1, []int{0}); cerr == nil || !errors.Is(cerr.Err, server.ErrUnavailable) {
		t.Fatalf("submit to dead node: %v, want unavailable", cerr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("degraded calls took %v, want fail-fast", elapsed)
	}
	if shards[(deadWorker-1)%2].Available() {
		t.Fatal("breaker still closed after repeated transport failures")
	}

	// Joins skip the open breaker and land on the survivor; the live
	// node's worker is untouched.
	w3 := rt.CoreJoin("three")
	if w3 == 0 || (w3-1)%2 != (liveWorker-1)%2 {
		t.Fatalf("failover join = %d, want a live-node id", w3)
	}
	if !rt.CoreHeartbeat(liveWorker) {
		t.Fatal("live worker heartbeat failed")
	}

	// The merged snapshot is honest about unavailability.
	if _, err := rt.Snapshot(); !errors.Is(err, server.ErrUnavailable) {
		t.Fatalf("snapshot with a dead node: %v, want unavailable", err)
	}
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, httptest.NewRequest("GET", "/api/healthz", nil))
	if hb := rec.Body.String(); !strings.Contains(hb, `"nodes_reachable":1`) {
		t.Fatalf("router healthz after node loss: %s", hb)
	}
}
