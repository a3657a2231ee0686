package clamshell

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/experiments"
	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// benchExperiment runs one paper experiment per iteration. On the first
// iteration the regenerated table is printed, so `go test -bench=.` doubles
// as the paper-reproduction harness (see EXPERIMENTS.md).
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(id, 42)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			r.Format(benchWriter{b})
		}
	}
}

// benchWriter routes experiment tables through the bench log.
type benchWriter struct{ b *testing.B }

func (w benchWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

var _ io.Writer = benchWriter{}

// One benchmark per table/figure of the paper's evaluation (§6).

func BenchmarkFig2(b *testing.B)        { benchExperiment(b, "fig2") }
func BenchmarkFig3(b *testing.B)        { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)        { benchExperiment(b, "fig4") }
func BenchmarkFig5(b *testing.B)        { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)        { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)        { benchExperiment(b, "fig7") }
func BenchmarkFig8(b *testing.B)        { benchExperiment(b, "fig8") }
func BenchmarkFig9(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14(b *testing.B)       { benchExperiment(b, "fig14") }
func BenchmarkFig15(b *testing.B)       { benchExperiment(b, "fig15") }
func BenchmarkFig16(b *testing.B)       { benchExperiment(b, "fig16") }
func BenchmarkFig17(b *testing.B)       { benchExperiment(b, "fig17") }
func BenchmarkFig18(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkHeadline(b *testing.B)    { benchExperiment(b, "headline") }
func BenchmarkConvergence(b *testing.B) { benchExperiment(b, "convergence") }
func BenchmarkRouting(b *testing.B)     { benchExperiment(b, "routing") }
func BenchmarkQCDecouple(b *testing.B)  { benchExperiment(b, "qcdecouple") }
func BenchmarkAsyncRetrain(b *testing.B) {
	benchExperiment(b, "asyncretrain")
}

// Extension ablations (paper sec 4.2 Extensions / sec 7 Future Directions).

func BenchmarkObjective(b *testing.B)     { benchExperiment(b, "objective") }
func BenchmarkEnsemble(b *testing.B)      { benchExperiment(b, "ensemble") }
func BenchmarkAbandonment(b *testing.B)   { benchExperiment(b, "abandonment") }
func BenchmarkEarlyStop(b *testing.B)     { benchExperiment(b, "earlystop") }
func BenchmarkQualification(b *testing.B) { benchExperiment(b, "qualification") }
func BenchmarkKOS(b *testing.B)           { benchExperiment(b, "kos") }
func BenchmarkProblem1(b *testing.B)      { benchExperiment(b, "problem1") }
func BenchmarkFatigue(b *testing.B)       { benchExperiment(b, "fatigue") }
func BenchmarkCriteria(b *testing.B)      { benchExperiment(b, "criteria") }
func BenchmarkModels(b *testing.B)        { benchExperiment(b, "models") }
func BenchmarkMarketDrift(b *testing.B)   { benchExperiment(b, "marketdrift") }
func BenchmarkTaxonomy(b *testing.B)      { benchExperiment(b, "taxonomy") }

// Micro-benchmarks of the hot substrate paths.

func BenchmarkLabelingRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Config{Seed: int64(i), PoolSize: 15, NumTasks: 100, GroupSize: 5, Retainer: true,
			Straggler: StragglerConfig{Enabled: true}}
		NewEngine(cfg).RunLabeling()
	}
}

func BenchmarkLabelingRunMaintained(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Config{Seed: int64(i), PoolSize: 15, NumTasks: 100, GroupSize: 5, Retainer: true,
			Straggler:   StragglerConfig{Enabled: true},
			Maintenance: MaintenanceConfig{Enabled: true, Threshold: 8 * time.Second, UseTermEst: true}}
		NewEngine(cfg).RunLabeling()
	}
}

func BenchmarkLogisticTrain(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := Guyon(rng, GuyonConfig{N: 500, Features: 50, Informative: 20, Classes: 2, ClassSep: 1.5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lr := RunLearning(LearnConfig{
			Config:       Config{Seed: int64(i), PoolSize: 10, Retainer: true},
			Dataset:      d,
			Strategy:     Hybrid,
			TargetLabels: 100,
			AsyncRetrain: true,
		})
		if lr.FinalAccuracy == 0 {
			b.Fatal("degenerate run")
		}
	}
}

// benchDo drives one request through the fabric handler without sockets.
func benchDo(fab *fabric.Fabric, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	var r io.Reader
	if body != "" {
		r = strings.NewReader(body)
	}
	fab.ServeHTTP(rec, httptest.NewRequest(method, path, r))
	return rec
}

// BenchmarkFabricThroughput measures the live routing plane's submit/poll
// hot path through the full HTTP handler (no sockets): each parallel
// worker submits a task, polls for an assignment and answers it — under a
// standing backlog of in-flight assignments, the steady state of a loaded
// pool. Hand-out decisions read the shard's dispatch index under the shard
// lock (saturated backlog tasks are not indexed at all), so one shard
// means one mutex convoying every poll while 8 shards means 8 independent
// locks; shards=8 should still beat shards=1 on a multi-core runner, now
// purely on lock spread rather than on splitting a queue scan.
func benchmarkFabricThroughput(b *testing.B, shards int) {
	fab := fabric.New(server.Config{WorkerTimeout: time.Hour}, shards)

	// Standing backlog: quorum-1 tasks each held by one primary assignee
	// plus one speculative duplicate, so they are neither starved nor
	// speculation candidates — every poll scans past them, none ever
	// completes or is handed out.
	const backlog = 2048
	for i := 0; i < backlog; i++ {
		rec := benchDo(fab, "POST", "/api/tasks",
			fmt.Sprintf(`{"tasks":[{"records":["backlog-%d"],"classes":2,"quorum":1}]}`, i))
		if rec.Code != 200 {
			b.Fatalf("backlog submit: %s", rec.Body.String())
		}
	}
	for i := 0; i < 2*backlog; i++ {
		rec := benchDo(fab, "POST", "/api/join", fmt.Sprintf(`{"name":"phantom-%d"}`, i))
		var join struct {
			WorkerID int `json:"worker_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &join); err != nil || join.WorkerID == 0 {
			b.Fatalf("phantom join: %s", rec.Body.String())
		}
		if rec := benchDo(fab, "GET", fmt.Sprintf("/api/task?worker_id=%d", join.WorkerID), ""); rec.Code != 200 {
			b.Fatalf("phantom fetch %d: %d", i, rec.Code)
		}
	}

	var goroutineSeq atomic.Int64
	// Several workers per core keep every shard's queue populated and make
	// lock contention visible — the single-shard mutex convoys, the
	// 8-shard fabric mostly doesn't.
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seq := goroutineSeq.Add(1)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("POST", "/api/join",
			strings.NewReader(fmt.Sprintf(`{"name":"bench-%d"}`, seq)))
		fab.ServeHTTP(rec, req)
		var join struct {
			WorkerID int `json:"worker_id"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &join); err != nil || join.WorkerID == 0 {
			b.Errorf("join failed: %s", rec.Body.String())
			return
		}
		fetchPath := fmt.Sprintf("/api/task?worker_id=%d", join.WorkerID)
		i := 0
		for pb.Next() {
			i++
			rec := httptest.NewRecorder()
			fab.ServeHTTP(rec, httptest.NewRequest("POST", "/api/tasks",
				strings.NewReader(fmt.Sprintf(
					`{"tasks":[{"records":["g%d-i%d"],"classes":2,"quorum":1}]}`, seq, i))))
			if rec.Code != 200 {
				b.Errorf("submit tasks: %s", rec.Body.String())
				return
			}
			rec = httptest.NewRecorder()
			fab.ServeHTTP(rec, httptest.NewRequest("GET", fetchPath, nil))
			if rec.Code == 200 {
				var a server.Assignment
				if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
					b.Errorf("assignment: %v", err)
					return
				}
				rec = httptest.NewRecorder()
				fab.ServeHTTP(rec, httptest.NewRequest("POST", "/api/submit",
					strings.NewReader(fmt.Sprintf(
						`{"worker_id":%d,"task_id":%d,"labels":[0]}`, join.WorkerID, a.TaskID))))
				if rec.Code != 200 {
					b.Errorf("submit answer: %s", rec.Body.String())
					return
				}
			}
		}
	})
}

func BenchmarkFabricThroughput(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkFabricThroughput(b, shards)
		})
	}
}

// memHalf is one direction of an in-memory duplex connection: a buffered
// byte stream. Unlike net.Pipe — whose unbuffered rendezvous makes every
// Write block until the peer reads, a cost real sockets do not have — this
// behaves like a loopback socket with kernel buffers: writers never block,
// readers block only when the stream is empty. The wire benchmark uses it
// so the measured cost is framing + codec + dispatch, not synthetic
// synchronization (net.Pipe remains in the correctness tests).
type memHalf struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	off    int
	closed bool
}

func newMemHalf() *memHalf {
	h := &memHalf{}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *memHalf) write(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, io.ErrClosedPipe
	}
	h.buf = append(h.buf, p...)
	h.cond.Signal()
	return len(p), nil
}

func (h *memHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.off == len(h.buf) && !h.closed {
		h.cond.Wait()
	}
	if h.off == len(h.buf) {
		return 0, io.EOF
	}
	n := copy(p, h.buf[h.off:])
	h.off += n
	if h.off == len(h.buf) {
		h.buf, h.off = h.buf[:0], 0
	}
	return n, nil
}

func (h *memHalf) close() {
	h.mu.Lock()
	h.closed = true
	h.cond.Broadcast()
	h.mu.Unlock()
}

type memConn struct{ r, w *memHalf }

func memPipe() (net.Conn, net.Conn) {
	a, b := newMemHalf(), newMemHalf()
	return &memConn{r: a, w: b}, &memConn{r: b, w: a}
}

func (c *memConn) Read(p []byte) (int, error)  { return c.r.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.w.write(p) }
func (c *memConn) Close() error                { c.r.close(); c.w.close(); return nil }

type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "mem" }

func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// BenchmarkWireThroughput mirrors BenchmarkFabricThroughput — the same
// standing-backlog workload against the same fabric — but over the binary
// wire transport instead of the JSON/HTTP handlers: each parallel worker
// holds one buffered in-memory connection and runs the identical
// submit/poll/answer loop through the full wire server (handshake,
// framing, codec, core dispatch). The acceptance bar for the wire path is
// ≥ 3× the ops/sec of the HTTP path at shards=1 with ≥ 5× fewer B/op —
// the encode/decode and per-request allocation overhead is the
// difference, the dispatch work is shared.
func benchmarkWireThroughput(b *testing.B, shards int) {
	fab := fabric.New(server.Config{WorkerTimeout: time.Hour}, shards)

	// Standing backlog, identical to benchmarkFabricThroughput: quorum-1
	// tasks each held by a primary assignee plus one speculative duplicate,
	// so they are neither starved nor speculation candidates.
	const backlog = 2048
	for i := 0; i < backlog; i++ {
		if _, err := fab.CoreEnqueue([]server.TaskSpec{
			{Records: []string{fmt.Sprintf("backlog-%d", i)}, Classes: 2, Quorum: 1},
		}); err != nil {
			b.Fatalf("backlog submit: %v", err)
		}
	}
	for i := 0; i < 2*backlog; i++ {
		id := fab.CoreJoin(fmt.Sprintf("phantom-%d", i))
		if _, disp := fab.CoreFetch(id); disp != server.FetchAssigned {
			b.Fatalf("phantom fetch %d: %v", i, disp)
		}
	}

	ws := wire.NewServer(fab)
	var goroutineSeq atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seq := goroutineSeq.Add(1)
		cliConn, srvConn := memPipe()
		go ws.ServeConn(srvConn)
		cl, err := wire.NewClient(cliConn)
		if err != nil {
			b.Errorf("handshake: %v", err)
			return
		}
		defer cl.Close()
		workerID, err := cl.Join(fmt.Sprintf("bench-%d", seq))
		if err != nil {
			b.Errorf("join failed: %v", err)
			return
		}
		spec := []server.TaskSpec{{Classes: 2, Quorum: 1}}
		labels := []int{0}
		i := 0
		for pb.Next() {
			i++
			spec[0].Records = []string{fmt.Sprintf("g%d-i%d", seq, i)}
			if _, err := cl.SubmitTasks(spec); err != nil {
				b.Errorf("submit tasks: %v", err)
				return
			}
			a, ok, err := cl.FetchTask(workerID)
			if err != nil {
				b.Errorf("fetch: %v", err)
				return
			}
			if ok {
				if _, _, err := cl.Submit(workerID, a.TaskID, labels); err != nil {
					b.Errorf("submit answer: %v", err)
					return
				}
			}
		}
	})
}

func BenchmarkWireThroughput(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkWireThroughput(b, shards)
		})
	}
}

// benchmarkWireThroughputBatched is the same standing-backlog workload as
// benchmarkWireThroughput but software-pipelined through the v2 batch
// envelope: a window of task triples rides each frame — the previous
// window's answers plus this window's enqueues and fetches — so 3×depth
// logical ops cost one round trip (and one write/read syscall pair on a
// real socket) instead of 3×depth. This end-to-end number is bounded by
// the shared core dispatch work, which batching cannot amortize; the
// enforced ≥3× ops/core gate for batching lives on the transport-bound
// poll workload (TestWireBatchedThroughputGate below), where framing,
// flush and wakeup overhead is the whole difference.
func benchmarkWireThroughputBatched(b *testing.B, shards int) {
	fab := fabric.New(server.Config{WorkerTimeout: time.Hour}, shards)
	const backlog = 2048
	for i := 0; i < backlog; i++ {
		if _, err := fab.CoreEnqueue([]server.TaskSpec{
			{Records: []string{fmt.Sprintf("backlog-%d", i)}, Classes: 2, Quorum: 1},
		}); err != nil {
			b.Fatalf("backlog submit: %v", err)
		}
	}
	for i := 0; i < 2*backlog; i++ {
		id := fab.CoreJoin(fmt.Sprintf("phantom-%d", i))
		if _, disp := fab.CoreFetch(id); disp != server.FetchAssigned {
			b.Fatalf("phantom fetch %d: %v", i, disp)
		}
	}

	ws := wire.NewServer(fab)
	var goroutineSeq atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// depth is the pipelining window: triples accumulated per frame.
		// Answers trail by one frame — each flush submits the previous
		// window's fetched tasks — so a window of 8 turns 24 logical ops
		// into one round trip.
		const depth = 8
		seq := goroutineSeq.Add(1)
		cliConn, srvConn := memPipe()
		go ws.ServeConn(srvConn)
		cl, err := wire.NewClient(cliConn)
		if err != nil {
			b.Errorf("handshake: %v", err)
			return
		}
		defer cl.Close()
		workerID, err := cl.Join(fmt.Sprintf("bench-%d", seq))
		if err != nil {
			b.Errorf("join failed: %v", err)
			return
		}
		spec := []server.TaskSpec{{Classes: 2, Quorum: 1}}
		labels := []int{0}
		batch := cl.NewBatch()
		var prevTasks []int
		var fetches []*wire.FetchResult
		pending := 0
		i := 0
		flush := func() bool {
			if err := batch.Do(); err != nil {
				b.Errorf("batch: %v", err)
				return false
			}
			prevTasks = prevTasks[:0]
			for _, f := range fetches {
				if f.Err != nil {
					b.Errorf("fetch: %v", f.Err)
					return false
				}
				if f.OK {
					prevTasks = append(prevTasks, f.Assignment.TaskID)
				}
			}
			fetches = fetches[:0]
			pending = 0
			batch.Reset()
			for _, id := range prevTasks {
				batch.Submit(workerID, id, labels)
			}
			return true
		}
		for pb.Next() {
			i++
			spec[0].Records = []string{fmt.Sprintf("g%d-i%d", seq, i)}
			batch.SubmitTasks(spec)
			fetches = append(fetches, batch.FetchTask(workerID))
			if pending++; pending == depth {
				if !flush() {
					return
				}
			}
		}
		// Drain the pipeline so no fetched task is leaked mid-flight (the
		// clock has already stopped when RunParallel's body returns).
		if flush() {
			batch.Do()
		}
	})
}

func BenchmarkWireThroughputBatched(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchmarkWireThroughputBatched(b, shards)
		})
	}
}

// benchmarkWirePoll measures the retainer pool's dominant steady-state op
// — the idle keep-alive poll — over the wire transport against the same
// standing-backlog fabric, depth ops per frame (depth 1 is a single-op
// call: one batch-of-one envelope, one round trip). Heartbeats leave the
// fabric unchanged, so the run measures transport cost against live
// dispatch state without mutating it, and the depth-N/depth-1 ratio
// isolates exactly what batching claims to amortize: framing, flushes and
// response wakeups.
func benchmarkWirePoll(b *testing.B, depth int) {
	fab := fabric.New(server.Config{WorkerTimeout: time.Hour}, 1)
	const backlog = 2048
	for i := 0; i < backlog; i++ {
		if _, err := fab.CoreEnqueue([]server.TaskSpec{
			{Records: []string{fmt.Sprintf("backlog-%d", i)}, Classes: 2, Quorum: 1},
		}); err != nil {
			b.Fatalf("backlog submit: %v", err)
		}
	}
	for i := 0; i < 2*backlog; i++ {
		id := fab.CoreJoin(fmt.Sprintf("phantom-%d", i))
		if _, disp := fab.CoreFetch(id); disp != server.FetchAssigned {
			b.Fatalf("phantom fetch %d: %v", i, disp)
		}
	}
	ws := wire.NewServer(fab)
	var goroutineSeq atomic.Int64
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		seq := goroutineSeq.Add(1)
		cliConn, srvConn := memPipe()
		go ws.ServeConn(srvConn)
		cl, err := wire.NewClient(cliConn)
		if err != nil {
			b.Errorf("handshake: %v", err)
			return
		}
		defer cl.Close()
		workerID, err := cl.Join(fmt.Sprintf("poll-%d", seq))
		if err != nil {
			b.Errorf("join failed: %v", err)
			return
		}
		if depth == 1 {
			for pb.Next() {
				if err := cl.Heartbeat(workerID); err != nil {
					b.Errorf("heartbeat: %v", err)
					return
				}
			}
			return
		}
		batch := cl.NewBatch()
		n := 0
		for pb.Next() {
			batch.Heartbeat(workerID)
			if n++; n == depth {
				if err := batch.Do(); err != nil {
					b.Errorf("batch: %v", err)
					return
				}
				batch.Reset()
				n = 0
			}
		}
		batch.Do() // drain the partial tail; clock already stopped
	})
}

func BenchmarkWirePoll(b *testing.B) {
	for _, depth := range []int{1, 64} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			benchmarkWirePoll(b, depth)
		})
	}
}

// TestWireBatchedThroughputGate is the enforced acceptance bar for the
// batch envelope: on the transport-bound poll workload, batching must
// deliver ≥ 3× the ops/core of single-op calls (one batch-of-one envelope
// per round trip) at equal-or-better bytes per op. It re-measures both sides with
// testing.Benchmark, so it costs several wall seconds and only runs when
// CLAMSHELL_PERF_GATE is set (the CI bench-smoke step sets it; plain
// `go test ./...` stays fast and timing-independent).
func TestWireBatchedThroughputGate(t *testing.T) {
	if os.Getenv("CLAMSHELL_PERF_GATE") == "" {
		t.Skip("set CLAMSHELL_PERF_GATE=1 to run the batching throughput gate")
	}
	seq := testing.Benchmark(func(b *testing.B) { b.ReportAllocs(); benchmarkWirePoll(b, 1) })
	bat := testing.Benchmark(func(b *testing.B) { b.ReportAllocs(); benchmarkWirePoll(b, 64) })
	ratio := float64(seq.NsPerOp()) / float64(bat.NsPerOp())
	t.Logf("poll ops/core: sequential %d ns/op %d B/op, batched %d ns/op %d B/op (%.2fx)",
		seq.NsPerOp(), seq.AllocedBytesPerOp(), bat.NsPerOp(), bat.AllocedBytesPerOp(), ratio)
	if ratio < 3 {
		t.Errorf("batched poll throughput %.2fx sequential, want >= 3x", ratio)
	}
	if bat.AllocedBytesPerOp() > seq.AllocedBytesPerOp() {
		t.Errorf("batched poll allocates %d B/op, sequential %d B/op: batching must not cost memory",
			bat.AllocedBytesPerOp(), seq.AllocedBytesPerOp())
	}
}

// benchmarkDispatchHandOut measures single-shard hand-out latency on a pool
// with real history and a standing backlog: `history` completed tasks on
// the books and `backlog` pending priority-0 tasks that never drain
// (measured traffic outranks them at priority 1). Each iteration is one
// full task lifetime through the HTTP handlers — submit, poll (the hand-out
// decision), answer. With the linear pending-queue scan this degraded with
// the size of the backlog; with the dispatch index the pick reads the front
// of the priority-1 bucket and the backlog (and all completed history) is
// never touched, so ns/op must stay flat as history grows 10× over a 50k
// backlog.
func benchmarkDispatchHandOut(b *testing.B, history, backlog int) {
	fab := fabric.New(server.Config{WorkerTimeout: time.Hour}, 1)
	rec := benchDo(fab, "POST", "/api/join", `{"name":"bench"}`)
	var join struct {
		WorkerID int `json:"worker_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &join); err != nil || join.WorkerID == 0 {
		b.Fatalf("join: %s", rec.Body.String())
	}
	fetchPath := fmt.Sprintf("/api/task?worker_id=%d", join.WorkerID)

	submitBatch := func(n int, prefix string, priority int) {
		for done := 0; done < n; {
			batch := min(1000, n-done)
			var sb strings.Builder
			sb.WriteString(`{"tasks":[`)
			for i := 0; i < batch; i++ {
				if i > 0 {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, `{"records":["%s-%d"],"classes":2,"quorum":1,"priority":%d}`,
					prefix, done+i, priority)
			}
			sb.WriteString(`]}`)
			if rec := benchDo(fab, "POST", "/api/tasks", sb.String()); rec.Code != 200 {
				b.Fatalf("%s submit: %s", prefix, rec.Body.String())
			}
			done += batch
		}
	}

	// Completed history: fetch and answer every task so it is done and off
	// the pending set — only the books (order, answers, costs) grow.
	submitBatch(history, "history", 1)
	for i := 0; i < history; i++ {
		rec := benchDo(fab, "GET", fetchPath, "")
		if rec.Code != 200 {
			b.Fatalf("history fetch %d: %d", i, rec.Code)
		}
		var a server.Assignment
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
			b.Fatal(err)
		}
		rec = benchDo(fab, "POST", "/api/submit",
			fmt.Sprintf(`{"worker_id":%d,"task_id":%d,"labels":[0]}`, join.WorkerID, a.TaskID))
		if rec.Code != 200 {
			b.Fatalf("history submit %d: %s", i, rec.Body.String())
		}
	}
	// Standing backlog: pending passive fill the measured traffic outranks.
	submitBatch(backlog, "backlog", 0)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := benchDo(fab, "POST", "/api/tasks",
			fmt.Sprintf(`{"tasks":[{"records":["live-%d"],"classes":2,"quorum":1,"priority":1}]}`, i))
		if rec.Code != 200 {
			b.Fatalf("submit: %s", rec.Body.String())
		}
		rec = benchDo(fab, "GET", fetchPath, "")
		if rec.Code != 200 {
			b.Fatalf("fetch: %d %s", rec.Code, rec.Body.String())
		}
		var a server.Assignment
		if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
			b.Fatal(err)
		}
		rec = benchDo(fab, "POST", "/api/submit",
			fmt.Sprintf(`{"worker_id":%d,"task_id":%d,"labels":[0]}`, join.WorkerID, a.TaskID))
		if rec.Code != 200 {
			b.Fatalf("answer: %s", rec.Body.String())
		}
	}
}

// BenchmarkDispatchHandOut pins the dispatch index's acceptance criteria:
// ns/op flat (within noise) from history=5k to history=50k over the same
// 50k-task standing backlog.
func BenchmarkDispatchHandOut(b *testing.B) {
	for _, history := range []int{5_000, 50_000} {
		b.Run(fmt.Sprintf("history=%d/backlog=50000", history), func(b *testing.B) {
			benchmarkDispatchHandOut(b, history, 50_000)
		})
	}
}

// BenchmarkSnapshotCompaction pins the durability engine's acceptance
// criteria: with a retention window, the per-compaction snapshot is
// O(live tasks) — its size and write time stay flat as completed history
// grows 10×, because demoted history lives once in the append-only
// retained-tally log instead of being re-serialized every cycle. The
// full-history mode (retention off) is the contrast: there every
// compaction re-serializes the whole past, and the snapshot grows ~10×
// with history — the old monolithic-snapshot cost model.
func BenchmarkSnapshotCompaction(b *testing.B) {
	const liveBacklog = 400
	payload := strings.Repeat("x", 160)
	modes := []struct {
		name      string
		retention time.Duration
	}{
		{"retained", time.Minute},
		{"full-history", 0},
	}
	for _, mode := range modes {
		for _, history := range []int{2_500, 25_000} {
			b.Run(fmt.Sprintf("%s/history=%d", mode.name, history), func(b *testing.B) {
				now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
				cfg := server.Config{WorkerTimeout: 24 * time.Hour, Now: func() time.Time { return now }}
				sh := server.NewShard(cfg, 0, 1)
				dir := b.TempDir()
				st, rec, err := journal.Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				defer st.Close()
				if err := sh.RecoverFrom(st, rec); err != nil {
					b.Fatal(err)
				}
				w := sh.Join("bench")
				for i := 0; i < history; i++ {
					id := sh.Enqueue(server.TaskSpec{Records: []string{payload}, Classes: 2, Quorum: 1})
					if outcome, _, err := sh.AcceptAnswer(id, w, []int{1}); outcome != server.SubmitAccepted {
						b.Fatalf("history answer: %v %v", outcome, err)
					}
				}
				for i := 0; i < liveBacklog; i++ {
					sh.Enqueue(server.TaskSpec{Records: []string{payload}, Classes: 2, Quorum: 2})
				}
				// Age the history past the window; the first compaction
				// demotes it (or, with retention off, carries it forever).
				now = now.Add(2 * time.Hour)
				if err := sh.CompactInto(st, mode.retention); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := sh.CompactInto(st, mode.retention); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				fi, err := os.Stat(filepath.Join(dir, journal.SnapName(st.Gen())))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(fi.Size()), "snap-bytes")
			})
		}
	}
}

// smoke check that the bench ids all exist in the registry.
func TestBenchIDsRegistered(t *testing.T) {
	for _, id := range []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "headline", "convergence", "routing",
		"qcdecouple", "asyncretrain", "objective", "ensemble", "abandonment",
		"earlystop", "qualification", "kos", "problem1", "fatigue",
		"criteria", "models", "marketdrift", "taxonomy",
	} {
		if experiments.Describe(id) == "" {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
}
