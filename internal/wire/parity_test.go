package wire_test

import (
	"net"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// hotAPI is the op surface both transports expose to worker drivers.
type hotAPI interface {
	Join(name string) (int, error)
	Heartbeat(workerID int) error
	Leave(workerID int) error
	SubmitTasks(tasks []server.TaskSpec) ([]int, error)
	FetchTask(workerID int) (server.Assignment, bool, error)
	Submit(workerID, taskID int, labels []int) (accepted, terminated bool, err error)
	Result(taskID int) (server.TaskStatus, error)
}

var (
	_ hotAPI = (*server.Client)(nil)
	_ hotAPI = (*wire.Client)(nil)
)

// TestWireHTTPParity drives an identical op sequence through two
// identically-configured fabrics — one over the JSON/HTTP transport, one
// over the wire transport's single-op calls — under a shared fake clock,
// comparing every response tuple, and finally proves the fabrics hold
// byte-identical durable state via /api/snapshot. Both transports are thin
// shims over the same server.Core, and this is the test that keeps them
// that way (TestWireBatchedParity adds batched wire frames).
func TestWireHTTPParity(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := server.Config{
		SpeculationLimit: 1,
		WorkerTimeout:    10 * time.Minute,
		Now:              func() time.Time { return now },
	}
	const shards = 4
	httpFab := fabric.New(cfg, shards)
	wireFab := fabric.New(cfg, shards)

	ts := httptest.NewServer(httpFab)
	defer ts.Close()
	httpCl := server.NewClient(ts.URL)

	cliConn, srvConn := net.Pipe()
	go wire.NewServer(wireFab).ServeConn(srvConn)
	wireCl, err := wire.NewClient(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	defer wireCl.Close()

	both := []hotAPI{httpCl, wireCl}

	join := func(name string) int {
		t.Helper()
		ids := make([]int, len(both))
		for i, cl := range both {
			id, err := cl.Join(name)
			if err != nil {
				t.Fatalf("join(%s) on transport %d: %v", name, i, err)
			}
			ids[i] = id
			if ids[i] != ids[0] {
				t.Fatalf("join(%s): transport %d id %d != transport 0 id %d", name, i, ids[i], ids[0])
			}
		}
		return ids[0]
	}
	enqueue := func(specs []server.TaskSpec) []int {
		t.Helper()
		got := make([][]int, len(both))
		for i, cl := range both {
			ids, err := cl.SubmitTasks(specs)
			if err != nil {
				t.Fatalf("enqueue on transport %d: %v", i, err)
			}
			got[i] = ids
			if !reflect.DeepEqual(got[i], got[0]) {
				t.Fatalf("enqueue: transport %d ids %v != transport 0 ids %v", i, got[i], got[0])
			}
		}
		return got[0]
	}
	fetch := func(worker int) (server.Assignment, bool) {
		t.Helper()
		as := make([]server.Assignment, len(both))
		oks := make([]bool, len(both))
		for i, cl := range both {
			a, ok, err := cl.FetchTask(worker)
			if err != nil {
				t.Fatalf("fetch(%d) on transport %d: %v", worker, i, err)
			}
			as[i], oks[i] = a, ok
			if oks[i] != oks[0] || !reflect.DeepEqual(as[i], as[0]) {
				t.Fatalf("fetch(%d): transport %d %+v/%v != transport 0 %+v/%v",
					worker, i, as[i], oks[i], as[0], oks[0])
			}
		}
		return as[0], oks[0]
	}
	submit := func(worker, task int, labels []int) (bool, bool) {
		t.Helper()
		acc := make([]bool, len(both))
		term := make([]bool, len(both))
		for i, cl := range both {
			a, tm, err := cl.Submit(worker, task, labels)
			if err != nil {
				t.Fatalf("submit(%d,%d) on transport %d: %v", worker, task, i, err)
			}
			acc[i], term[i] = a, tm
			if acc[i] != acc[0] || term[i] != term[0] {
				t.Fatalf("submit(%d,%d): transport %d %v/%v != transport 0 %v/%v",
					worker, task, i, acc[i], term[i], acc[0], term[0])
			}
		}
		return acc[0], term[0]
	}

	w1 := join("alice")
	w2 := join("bob")
	w3 := join("carol")

	specs := []server.TaskSpec{
		{Records: []string{"p0", "p0b"}, Classes: 2, Quorum: 2},
		{Records: []string{"hot"}, Classes: 3, Quorum: 1, Priority: 5},
		{Records: []string{"fill-a"}, Quorum: 1},
		{Records: []string{"fill-b"}, Quorum: 1},
		{Records: []string{"fill-c"}, Quorum: 1},
	}
	ids := enqueue(specs)

	now = now.Add(time.Second)
	// Drain the queue with all three workers, answering everything; the
	// straggler race and cross-shard steals exercise the same paths on both
	// transports.
	for i := 0; i < 12; i++ {
		w := []int{w1, w2, w3}[i%3]
		a, ok := fetch(w)
		if !ok {
			continue
		}
		now = now.Add(time.Second)
		labels := make([]int, len(a.Records))
		for j := range labels {
			labels[j] = (w + a.TaskID + j) % 2
		}
		submit(w, a.TaskID, labels)
		now = now.Add(time.Second)
	}

	// A late submission against the completed quorum-1 task exercises the
	// terminated/duplicate paths; the helper asserts both transports agree
	// on the outcome.
	submit(w1, ids[1], []int{1})

	for i, cl := range both {
		if err := cl.Heartbeat(w2); err != nil {
			t.Fatalf("heartbeat on transport %d: %v", i, err)
		}
		if err := cl.Leave(w3); err != nil {
			t.Fatalf("leave on transport %d: %v", i, err)
		}
	}

	// Results agree per task.
	for _, id := range ids {
		got := make([]server.TaskStatus, len(both))
		for i, cl := range both {
			st, err := cl.Result(id)
			if err != nil {
				t.Fatalf("result(%d) on transport %d: %v", id, i, err)
			}
			got[i] = st
			if !reflect.DeepEqual(got[i], got[0]) {
				t.Fatalf("result(%d): transport %d %+v != transport 0 %+v", id, i, got[i], got[0])
			}
		}
	}

	// The acceptance check: byte-identical durable state across HTTP and
	// wire.
	compareSnapshots(t, []*fabric.Fabric{httpFab, wireFab})
}

// compareSnapshots requires every fabric's /api/snapshot document to be
// byte-identical to the first one's.
func compareSnapshots(t *testing.T, fabs []*fabric.Fabric) {
	t.Helper()
	var first []byte
	for i, fab := range fabs {
		rec := httptest.NewRecorder()
		fab.ServeHTTP(rec, httptest.NewRequest("GET", "/api/snapshot", nil))
		if rec.Code != 200 {
			t.Fatalf("snapshot on fabric %d: %d", i, rec.Code)
		}
		if i == 0 {
			first = append([]byte(nil), rec.Body.Bytes()...)
			continue
		}
		if got := rec.Body.String(); got != string(first) {
			t.Fatalf("snapshots diverged:\nfabric 0: %s\nfabric %d: %s", first, i, got)
		}
	}
}

// TestWireBatchedParity issues one identical op sequence three ways —
// JSON/HTTP, wire single-op calls, and wire multi-op batched frames —
// against three identically-configured fabrics under a fixed clock,
// comparing per-op results and requiring byte-identical /api/snapshot
// state. Batching is pure framing: the
// server applies a batch's sub-requests in order, so coalescing must not
// be observable in the routing state.
func TestWireBatchedParity(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := server.Config{
		SpeculationLimit: 1,
		WorkerTimeout:    10 * time.Minute,
		Now:              func() time.Time { return now },
	}
	const shards = 4
	newWire := func() (*fabric.Fabric, *wire.Client) {
		t.Helper()
		fab := fabric.New(cfg, shards)
		cliConn, srvConn := net.Pipe()
		go wire.NewServer(fab).ServeConn(srvConn)
		cl, err := wire.NewClient(cliConn)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return fab, cl
	}
	fabHTTP := fabric.New(cfg, shards)
	ts := httptest.NewServer(fabHTTP)
	defer ts.Close()
	fabSingle, clSingle := newWire()
	fabBatch, clBatch := newWire()
	sequential := []hotAPI{server.NewClient(ts.URL), clSingle}

	workers := []string{"alice", "bob", "carol"}
	ids := make([]int, len(workers))

	// Joins: one batched frame for all three workers; sequentially on the
	// other two transports.
	{
		b := clBatch.NewBatch()
		futs := make([]*wire.JoinResult, len(workers))
		for i, name := range workers {
			futs[i] = b.Join(name)
		}
		if err := b.Do(); err != nil {
			t.Fatalf("batched joins: %v", err)
		}
		for i, name := range workers {
			if futs[i].Err != nil {
				t.Fatalf("batched join(%s): %v", name, futs[i].Err)
			}
			ids[i] = futs[i].ID
			for ci, cl := range sequential {
				id, err := cl.Join(name)
				if err != nil || id != ids[i] {
					t.Fatalf("sequential join(%s) on client %d: id=%d err=%v want %d", name, ci, id, err, ids[i])
				}
			}
		}
	}

	// Enqueues: two spec batches in one frame.
	specsA := []server.TaskSpec{
		{Records: []string{"p0", "p0b"}, Classes: 2, Quorum: 2},
		{Records: []string{"hot"}, Classes: 3, Quorum: 1, Priority: 5},
	}
	specsB := []server.TaskSpec{
		{Records: []string{"fill-a"}, Quorum: 1},
		{Records: []string{"fill-b"}, Quorum: 1},
		{Records: []string{"fill-c"}, Quorum: 1},
	}
	var taskIDs []int
	{
		b := clBatch.NewBatch()
		fa, fb := b.SubmitTasks(specsA), b.SubmitTasks(specsB)
		if err := b.Do(); err != nil {
			t.Fatalf("batched enqueue: %v", err)
		}
		if fa.Err != nil || fb.Err != nil {
			t.Fatalf("batched enqueue: %v / %v", fa.Err, fb.Err)
		}
		taskIDs = append(append([]int(nil), fa.IDs...), fb.IDs...)
		for ci, cl := range sequential {
			ia, err := cl.SubmitTasks(specsA)
			if err != nil {
				t.Fatalf("sequential enqueue A on client %d: %v", ci, err)
			}
			ib, err := cl.SubmitTasks(specsB)
			if err != nil {
				t.Fatalf("sequential enqueue B on client %d: %v", ci, err)
			}
			if got := append(append([]int(nil), ia...), ib...); !reflect.DeepEqual(got, taskIDs) {
				t.Fatalf("enqueue ids on client %d: %v != %v", ci, got, taskIDs)
			}
		}
	}

	// Drain: per round, one batched frame fetches for all three workers;
	// then one batched frame submits every received assignment. The
	// sequential transports issue the identical ops in identical order.
	for round := 0; round < 5; round++ {
		b := clBatch.NewBatch()
		fetches := make([]*wire.FetchResult, len(ids))
		for i, w := range ids {
			fetches[i] = b.FetchTask(w)
		}
		if err := b.Do(); err != nil {
			t.Fatalf("batched fetch round %d: %v", round, err)
		}
		type gotFetch struct {
			a  server.Assignment
			ok bool
		}
		batchGot := make([]gotFetch, len(ids))
		for i, f := range fetches {
			if f.Err != nil {
				t.Fatalf("batched fetch(%d) round %d: %v", ids[i], round, f.Err)
			}
			batchGot[i] = gotFetch{f.Assignment, f.OK}
		}
		for ci, cl := range sequential {
			for i, w := range ids {
				a, ok, err := cl.FetchTask(w)
				if err != nil {
					t.Fatalf("sequential fetch(%d) on client %d: %v", w, ci, err)
				}
				if ok != batchGot[i].ok || !reflect.DeepEqual(a, batchGot[i].a) {
					t.Fatalf("fetch(%d) round %d: client %d %+v/%v != batch %+v/%v",
						w, round, ci, a, ok, batchGot[i].a, batchGot[i].ok)
				}
			}
		}

		sb := clBatch.NewBatch()
		var submits []*wire.SubmitResult
		var submitArgs [][3]interface{}
		for i, g := range batchGot {
			if !g.ok {
				continue
			}
			labels := make([]int, len(g.a.Records))
			for j := range labels {
				labels[j] = (ids[i] + g.a.TaskID + j) % 2
			}
			submits = append(submits, sb.Submit(ids[i], g.a.TaskID, labels))
			submitArgs = append(submitArgs, [3]interface{}{ids[i], g.a.TaskID, labels})
		}
		if sb.Len() == 0 {
			continue
		}
		if err := sb.Do(); err != nil {
			t.Fatalf("batched submit round %d: %v", round, err)
		}
		for si, f := range submits {
			if f.Err != nil {
				t.Fatalf("batched submit round %d #%d: %v", round, si, f.Err)
			}
			w, task, labels := submitArgs[si][0].(int), submitArgs[si][1].(int), submitArgs[si][2].([]int)
			for ci, cl := range sequential {
				acc, term, err := cl.Submit(w, task, labels)
				if err != nil {
					t.Fatalf("sequential submit on client %d: %v", ci, err)
				}
				if acc != f.Accepted || term != f.Terminated {
					t.Fatalf("submit(%d,%d): client %d %v/%v != batch %v/%v",
						w, task, ci, acc, term, f.Accepted, f.Terminated)
				}
			}
		}
	}

	// Wind-down ops and result reads, batched in one frame.
	{
		b := clBatch.NewBatch()
		hb := b.Heartbeat(ids[1])
		lv := b.Leave(ids[2])
		sts := make([]*wire.ResultStatus, len(taskIDs))
		for i, id := range taskIDs {
			sts[i] = b.Result(id)
		}
		if err := b.Do(); err != nil {
			t.Fatalf("batched wind-down: %v", err)
		}
		if hb.Err != nil || lv.Err != nil {
			t.Fatalf("batched heartbeat/leave: %v / %v", hb.Err, lv.Err)
		}
		for ci, cl := range sequential {
			if err := cl.Heartbeat(ids[1]); err != nil {
				t.Fatalf("sequential heartbeat on client %d: %v", ci, err)
			}
			if err := cl.Leave(ids[2]); err != nil {
				t.Fatalf("sequential leave on client %d: %v", ci, err)
			}
			for i, id := range taskIDs {
				st, err := cl.Result(id)
				if err != nil {
					t.Fatalf("sequential result(%d) on client %d: %v", id, ci, err)
				}
				if sts[i].Err != nil || !reflect.DeepEqual(st, sts[i].Status) {
					t.Fatalf("result(%d): client %d %+v != batch %+v (err=%v)", id, ci, st, sts[i].Status, sts[i].Err)
				}
			}
		}
	}

	compareSnapshots(t, []*fabric.Fabric{fabHTTP, fabSingle, fabBatch})
}
