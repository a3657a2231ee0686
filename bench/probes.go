package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// Per-layer probes. Each layer is this repository's package of that name,
// measured from outside by timing calls into its public functions from a
// single goroutine, with a stub core below it where it must be isolated
// from the layers underneath. A probe's figure is the median of its
// individually timed calls; every call is also a span in the trace file.

// nullCore is the stub server.Core: it does no pool work at all, so a
// transport served over it costs framing, codec and syscalls and nothing
// else. CoreFetch answers with one fixed assignment; in queue mode it hands
// out each enqueued task exactly quorum times instead (enough of a pool
// for the generator's own bookkeeping to run against it).
type nullCore struct {
	mu      sync.Mutex
	nextID  int
	pending []server.Assignment // one entry per hand-out still owed
	queue   bool                // CoreFetch serves pending (else the fixed assignment)
	empty   atomic.Bool         // CoreFetch answers FetchNoWork
	fixed   server.Assignment
}

func newNullCore() *nullCore {
	return &nullCore{fixed: server.Assignment{TaskID: 1, Records: []string{"probe-r0", "probe-r1", "probe-r2"}, Classes: classes}}
}

func (c *nullCore) CoreJoin(string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}
func (c *nullCore) CoreHeartbeat(int) bool { return true }
func (c *nullCore) CoreLeave(int)          {}

func (c *nullCore) CoreEnqueue(specs []server.TaskSpec) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]int, len(specs))
	for i, s := range specs {
		c.nextID++
		ids[i] = c.nextID
		for q := 0; c.queue && q < s.Quorum; q++ {
			c.pending = append(c.pending, server.Assignment{TaskID: ids[i], Records: s.Records, Classes: s.Classes})
		}
	}
	return ids, nil
}

func (c *nullCore) CoreFetch(int) (server.Assignment, server.FetchDisposition) {
	if c.empty.Load() {
		return server.Assignment{}, server.FetchNoWork
	}
	if !c.queue {
		return c.fixed, server.FetchAssigned
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.pending)
	if n == 0 {
		return server.Assignment{}, server.FetchNoWork
	}
	a := c.pending[n-1]
	c.pending = c.pending[:n-1]
	return a, server.FetchAssigned
}

func (c *nullCore) CoreSubmit(int, int, []int) (server.SubmitReply, *server.CoreError) {
	return server.SubmitReply{Accepted: true}, nil
}

func (c *nullCore) CoreResult(id int) (server.TaskStatus, bool) {
	return server.TaskStatus{ID: id, State: "complete"}, true
}

// coreClient drives a server.Core in-process through the drivers' client
// surface: the generator with no transport and no server under it.
type coreClient struct{ core server.Core }

func (c coreClient) Join(name string) (int, error) { return c.core.CoreJoin(name), nil }
func (c coreClient) SubmitTasks(specs []server.TaskSpec) ([]int, error) {
	return c.core.CoreEnqueue(specs)
}
func (c coreClient) FetchTask(w int) (server.Assignment, bool, error) {
	a, disp := c.core.CoreFetch(w)
	return a, disp == server.FetchAssigned, nil
}
func (c coreClient) Submit(w, task int, labels []int) (bool, bool, error) {
	r, cerr := c.core.CoreSubmit(w, task, labels)
	if cerr != nil {
		return false, false, cerr
	}
	return r.Accepted, r.Terminated, nil
}
func (c coreClient) SubmitAndFetch(w, task int, labels []int) (bool, bool, server.Assignment, bool, error) {
	acc, term, err := c.Submit(w, task, labels)
	if err != nil {
		return false, false, server.Assignment{}, false, err
	}
	a, ok, _ := c.FetchTask(w)
	return acc, term, a, ok, nil
}

// countingConn counts the bytes crossing a client connection.
type countingConn struct {
	net.Conn
	n atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// prober runs the probes and collects their figures (µs unless named
// otherwise) under the per-layer metric names.
type prober struct {
	clk  clock
	tr   *tracer
	seed int64
	w    workload // shapes the representative ops (task sizes, window)
	o    runOpts  // scales the call counts and the pools' backlog
	out  map[string]float64
}

// timeCalls times n calls of fn one by one and returns their median in µs.
func (p *prober) timeCalls(name string, n int, fn func(i int) error) (float64, error) {
	n = p.o.scaled(n)
	id := p.tr.probeID(name)
	us := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := p.clk.now()
		err := fn(i)
		t1 := p.clk.now()
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		p.tr.probeSpan(id, t0, t1)
		us = append(us, float64(t1-t0)/1e3)
	}
	return median(us), nil
}

// measure times n calls of fn and files their median under name.
func (p *prober) measure(name string, n int, fn func(i int) error) error {
	us, err := p.timeCalls(name, n, fn)
	p.out[name+"_us"] = us
	return err
}

// serveNull serves a stub core over a wire listener on loopback and
// returns its address and a function that stops it and waits for it.
func serveNull(core *nullCore) (addr string, stop func(), err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	ws := wire.NewServer(core)
	done := make(chan struct{})
	go func() { defer close(done); _ = ws.Serve(l) }() // returns when l closes
	return l.Addr().String(), func() { l.Close(); <-done }, nil
}

// mallocs returns the process's cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeSpecs is a representative saturate-phase enqueue batch.
func (p *prober) probeSpecs(n int) []server.TaskSpec {
	g := newTaskGen(p.seed, 9, p.w)
	return append([]server.TaskSpec(nil), g.batch(n)...)
}

const (
	probeCalls   = 2000 // timed calls per transport probe
	probeBatch   = 25   // the saturate phase's enqueue batch
	probeRounds  = 60   // enqueue rounds per pool probe (each drives 25 tasks to quorum)
	replTasks    = 15   // tasks driven to quorum behind the replication barrier
	compactRuns  = 5
	commitCalls  = 300 // fsync-per-append is two orders slower than the other modes
	labelsOfTask = 3   // the fixed assignment's records
)

// wireProbes measures the wire transport over loopback against the stub
// core: frame + CRC + codec + syscalls, no pool work.
func (p *prober) wireProbes() error {
	core := newNullCore()
	addr, stop, err := serveNull(core)
	if err != nil {
		return err
	}
	defer stop()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	cc := &countingConn{Conn: conn}
	cl, err := wire.NewClient(cc)
	if err != nil {
		conn.Close()
		return err
	}
	defer cl.Close()
	w, err := cl.Join("probe")
	if err != nil {
		return err
	}
	labels := answerInto(nil, core.fixed.Records)
	specs := p.probeSpecs(probeBatch)
	calls := float64(p.o.scaled(probeCalls))

	b0, m0 := cc.n.Load(), mallocs()
	if err := p.measure("wire.pair_rtt", probeCalls, func(int) error {
		_, _, _, _, err := cl.SubmitAndFetch(w, 1, labels)
		return err
	}); err != nil {
		return err
	}
	p.out["wire.allocs_per_pair"] = float64(mallocs()-m0) / calls
	p.out["wire.bytes_per_pair"] = float64(cc.n.Load()-b0) / calls

	b := cl.NewBatch()
	for _, probe := range []struct {
		name string
		n    int
		fn   func(int) error
	}{
		{"wire.fetch_rtt", probeCalls, func(int) error { _, _, err := cl.FetchTask(w); return err }},
		{"wire.submit_rtt", probeCalls, func(int) error { _, _, err := cl.Submit(w, 1, labels); return err }},
		{"wire.enqueue_rtt", probeCalls / 4, func(int) error { _, err := cl.SubmitTasks(specs); return err }},
		{"wire.enqueue1_rtt", probeCalls / 4, func(int) error { _, err := cl.SubmitTasks(specs[:1]); return err }},
		{"wire.batch16_rtt", probeCalls, func(int) error {
			b.Reset()
			for i := 0; i < idleFrameFetches; i++ {
				b.FetchTask(w)
			}
			b.Heartbeat(w)
			return b.Do()
		}},
	} {
		if probe.name == "wire.batch16_rtt" {
			core.empty.Store(true) // idle_pool's frames poll an empty queue
			b0 = cc.n.Load()
		}
		if err := p.measure(probe.name, probe.n, probe.fn); err != nil {
			return err
		}
	}
	p.out["wire.bytes_per_poll"] = float64(cc.n.Load()-b0) / calls / (idleFrameFetches + 1)
	return nil
}

// httpProbes measures the JSON/HTTP shim (server.Client against
// RegisterCoreRoutes) over loopback against the stub core.
func (p *prober) httpProbes() error {
	core := newNullCore()
	mux := http.NewServeMux()
	server.RegisterCoreRoutes(mux, core)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: mux}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(l) }() // returns ErrServerClosed on Close
	defer func() { srv.Close(); <-done }()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	cl := &server.Client{BaseURL: "http://" + l.Addr().String(), HTTP: &http.Client{Transport: tr}}
	w, err := cl.Join("probe")
	if err != nil {
		return err
	}
	labels := answerInto(nil, core.fixed.Records)
	specs := p.probeSpecs(probeBatch)

	m0 := mallocs()
	if err := p.measure("server.http_fetch_rtt", probeCalls, func(int) error { _, _, err := cl.FetchTask(w); return err }); err != nil {
		return err
	}
	if err := p.measure("server.http_submit_rtt", probeCalls, func(int) error { _, _, err := cl.Submit(w, 1, labels); return err }); err != nil {
		return err
	}
	p.out["server.http_allocs_per_op"] = float64(mallocs()-m0) / float64(2*p.o.scaled(probeCalls))
	return p.measure("server.http_enqueue_rtt", probeCalls/4, func(int) error { _, err := cl.SubmitTasks(specs); return err })
}

// preloadCore loads the standing backlog and its parked holders straight
// into a core (the probes' pools carry the same state the workloads do).
func preloadCore(core server.Core, seed int64, tasks int) error {
	for from := 0; from < tasks; from += preloadFrame {
		if _, err := core.CoreEnqueue(backlogSpecs(seed, from, min(preloadFrame, tasks-from))); err != nil {
			return err
		}
	}
	for i := 0; i < 2*tasks; i++ {
		if _, disp := core.CoreFetch(core.CoreJoin("holder")); disp != server.FetchAssigned {
			return errors.New("backlog holder was handed nothing")
		}
	}
	return nil
}

// poolTimes are the per-call medians (µs) of one pool probe.
type poolTimes struct{ enqueue, fetch, fetchEmpty, submit float64 }

// poolProbe drives a core holding the standing backlog with direct calls:
// rounds × (one batch enqueue, then 16 workers fetching and answering
// until the batch is at quorum), then polls of the drained pool.
func (p *prober) poolProbe(name string, core server.Core, rounds int) (poolTimes, error) {
	var workers [numWorkers]int
	for i := range workers {
		workers[i] = core.CoreJoin("probe")
	}
	g := newTaskGen(p.seed, 8, p.w)
	var enq, fetch, submit []float64
	var labels []int
	ids := [3]uint16{p.tr.probeID(name + "_enqueue"), p.tr.probeID(name + "_fetch"), p.tr.probeID(name + "_submit")}
	for r := 0; r < rounds; r++ {
		specs := g.batch(probeBatch)
		t0 := p.clk.now()
		_, err := core.CoreEnqueue(specs)
		t1 := p.clk.now()
		if err != nil {
			return poolTimes{}, err
		}
		p.tr.probeSpan(ids[0], t0, t1)
		enq = append(enq, float64(t1-t0)/1e3)
		for busy := true; busy; {
			busy = false
			for _, w := range workers {
				t0 := p.clk.now()
				a, disp := core.CoreFetch(w)
				t1 := p.clk.now()
				if disp != server.FetchAssigned {
					continue
				}
				busy = true
				p.tr.probeSpan(ids[1], t0, t1)
				fetch = append(fetch, float64(t1-t0)/1e3)
				labels = answerInto(labels, a.Records)
				t0 = p.clk.now()
				_, cerr := core.CoreSubmit(w, a.TaskID, labels)
				t1 = p.clk.now()
				if cerr != nil {
					return poolTimes{}, cerr
				}
				p.tr.probeSpan(ids[2], t0, t1)
				submit = append(submit, float64(t1-t0)/1e3)
			}
		}
	}
	empty, err := p.timeCalls(name+"_fetch_empty", probeCalls, func(i int) error {
		if _, disp := core.CoreFetch(workers[i%numWorkers]); disp != server.FetchNoWork {
			return errors.New("drained pool handed out work")
		}
		return nil
	})
	return poolTimes{enqueue: median(enq), fetch: median(fetch), fetchEmpty: empty, submit: median(submit)}, err
}

// shardAndFabricProbes measures dispatch hand-out and submit-under-lock on
// one shard, then the same calls through a 4-shard fabric; the fabric's
// self time (placement, pinning, stealing) is the difference.
func (p *prober) shardAndFabricProbes() (shard poolTimes, err error) {
	cfg := server.Config{SpeculationLimit: 1}
	sh := server.NewShard(cfg, 0, 1)
	if err = preloadCore(sh, p.seed, p.o.backlog()); err != nil {
		return shard, err
	}
	if shard, err = p.poolProbe("server.shard", sh, p.o.scaled(probeRounds)); err != nil {
		return shard, err
	}
	p.out["server.shard_enqueue_us"] = shard.enqueue
	p.out["server.shard_fetch_us"] = shard.fetch
	p.out["server.shard_fetch_empty_us"] = shard.fetchEmpty
	p.out["server.shard_submit_us"] = shard.submit

	fab := fabric.New(cfg, 4)
	if err = preloadCore(fab, p.seed, p.o.backlog()); err != nil {
		return shard, err
	}
	ft, err := p.poolProbe("fabric", fab, p.o.scaled(probeRounds))
	if err != nil {
		return shard, err
	}
	p.out["fabric.enqueue_self_us"] = ft.enqueue - shard.enqueue
	p.out["fabric.fetch_self_us"] = ft.fetch - shard.fetch
	p.out["fabric.fetch_empty_self_us"] = ft.fetchEmpty - shard.fetchEmpty
	p.out["fabric.submit_self_us"] = ft.submit - shard.submit
	return shard, nil
}

// routerProbes measures Router.Core* over a RemoteShard whose node is the
// stub core behind a wire server. The router's own forwarding cost is that
// time minus a direct wire round trip of the same op to the same server;
// the two are timed alternately, because a round trip here drifts by more
// between one second and the next than the router adds to it.
func (p *prober) routerProbes() error {
	core := newNullCore()
	addr, stop, err := serveNull(core)
	if err != nil {
		return err
	}
	defer stop()
	direct, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer direct.Close()
	remote := fabric.NewRemoteShard(addr, fabric.RemoteOptions{})
	defer remote.Close()
	rt := fabric.NewRouter([]*fabric.RemoteShard{remote}, nil)
	w := rt.CoreJoin("probe")
	if w == 0 {
		return errors.New("router probe: join refused")
	}
	labels := answerInto(nil, core.fixed.Records)
	specs := p.probeSpecs(1)

	// self times n alternating (direct, routed) pairs and returns the
	// difference of their medians.
	self := func(name string, n int, directCall, routedCall func() error) (float64, error) {
		var d, r []float64
		id := p.tr.probeID(name)
		for i := 0; i < p.o.scaled(n); i++ {
			t0 := p.clk.now()
			err := directCall()
			t1 := p.clk.now()
			if err == nil {
				err = routedCall()
			}
			t2 := p.clk.now()
			if err != nil {
				return 0, fmt.Errorf("probe %s: %w", name, err)
			}
			p.tr.probeSpan(id, t1, t2)
			d, r = append(d, float64(t1-t0)/1e3), append(r, float64(t2-t1)/1e3)
		}
		return median(r) - median(d), nil
	}
	if p.out["fabric.router_fetch_self_us"], err = self("fabric.router_fetch", probeCalls,
		func() error { _, _, err := direct.FetchTask(w); return err },
		func() error {
			if _, disp := rt.CoreFetch(w); disp != server.FetchAssigned {
				return errors.New("no assignment")
			}
			return nil
		}); err != nil {
		return err
	}
	if p.out["fabric.router_submit_self_us"], err = self("fabric.router_submit", probeCalls,
		func() error { _, _, err := direct.Submit(w, 1, labels); return err },
		func() error {
			if _, cerr := rt.CoreSubmit(w, 1, labels); cerr != nil {
				return cerr
			}
			return nil
		}); err != nil {
		return err
	}
	p.out["fabric.router_enqueue_self_us"], err = self("fabric.router_enqueue", probeCalls/4,
		func() error { _, err := direct.SubmitTasks(specs); return err },
		func() error { _, err := rt.CoreEnqueue(specs); return err })
	return err
}

// journalProbes measures Store.Append per fsync mode on representative
// ops, compaction at a shard's share of the standing state, and what an
// attached journal adds to a shard's submit.
func (p *prober) journalProbes(dir string, bare poolTimes) error {
	ops := []journal.Op{
		{T: journal.OpSubmit, Task: 7, Records: newNullCore().fixed.Records, Classes: classes, Quorum: labelQuorum, Priority: 2},
		{T: journal.OpAssign, Task: 7, Worker: 11},
		{T: journal.OpAnswer, Task: 7, Worker: 11, Labels: []int{0, 1, 1}, Pay: 3 * recordPayMicro},
	}
	modes := []struct {
		name  string
		mode  journal.SyncMode
		calls int
	}{{"off", journal.SyncOff, probeCalls}, {"group", journal.SyncGroup, probeCalls}, {"commit", journal.SyncCommit, commitCalls}}
	for _, m := range modes {
		st, _, err := journal.Open(filepath.Join(dir, "append-"+m.name))
		if err != nil {
			return err
		}
		st.SetSync(m.mode, 0)
		b0 := st.ReplState().Appended
		us, err := p.timeCalls("journal.append_"+m.name, m.calls, func(i int) error { return st.Append(ops[i%len(ops)]) })
		if m.mode == journal.SyncGroup {
			p.out["journal.bytes_per_append"] = float64(st.ReplState().Appended-b0) / float64(p.o.scaled(m.calls))
		}
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		p.out["journal.append_us_"+m.name] = us
	}

	// A journaled shard holding one shard's share of the backlog: its
	// submit against the bare shard's, then its compaction.
	st, _, err := journal.Open(filepath.Join(dir, "shard"))
	if err != nil {
		return err
	}
	defer st.Close()
	st.SetSync(journal.SyncGroup, 0)
	sh := server.NewShard(server.Config{SpeculationLimit: 1}, 0, 1)
	sh.AttachJournal(st)
	if err := preloadCore(sh, p.seed, p.o.backlog()/4); err != nil {
		return err
	}
	jt, err := p.poolProbe("journal.shard", sh, p.o.scaled(probeRounds/3))
	if err != nil {
		return err
	}
	p.out["journal.shard_submit_delta_us"] = jt.submit - bare.submit
	ms, err := p.timeCalls("journal.compact", compactRuns, func(int) error { return sh.CompactInto(st, persistRetention) })
	p.out["journal.compact_ms"] = ms / 1e3
	if err == nil {
		err = st.Err()
	}
	return err
}

// replProbes times the replication barrier behind each mutating op of
// replTasks label cycles, on a journaled 2-shard node with a live
// follower (routed_repl's node without the router).
func (p *prober) replProbes() (err error) {
	t, err := boot(workload{name: "probe-repl", shards: 2, durable: true, repl: true})
	if err != nil {
		return err
	}
	defer func() {
		if serr := t.shutdown(); err == nil {
			err = serr
		}
	}()
	if err := t.startFollower(); err != nil {
		return err
	}
	var workers [labelQuorum]int
	for i := range workers {
		workers[i] = t.fab.CoreJoin("probe")
	}
	barrier := t.fab.ReplBarrier()
	barrier()
	id := p.tr.probeID("repl.barrier_wait")
	var waits []float64
	wait := func() {
		t0 := p.clk.now()
		barrier()
		t1 := p.clk.now()
		p.tr.probeSpan(id, t0, t1)
		waits = append(waits, float64(t1-t0)/1e6)
	}
	pulled0 := t.follower.PulledBytes()
	g := newTaskGen(p.seed, 7, workload{minRecords: labelsOfTask, maxRecords: labelsOfTask, quorum: labelQuorum})
	var labels []int
	tasks := p.o.scaled(replTasks)
	for i := 0; i < tasks; i++ {
		if _, err := t.fab.CoreEnqueue(g.batch(1)); err != nil {
			return err
		}
		wait()
		for _, w := range workers {
			a, disp := t.fab.CoreFetch(w)
			if disp != server.FetchAssigned {
				return errors.New("repl probe: no assignment")
			}
			wait()
			labels = answerInto(labels, a.Records)
			if _, cerr := t.fab.CoreSubmit(w, a.TaskID, labels); cerr != nil {
				return cerr
			}
			wait()
		}
	}
	sorted := sortedCopy(waits)
	p.out["repl.barrier_wait_ms_p50"], _ = percentile(sorted, 0.5)
	p.out["repl.barrier_wait_ms_p90"], _ = percentile(sorted, 0.9)
	p.out["repl.pulled_bytes_per_label"] = float64(t.follower.PulledBytes()-pulled0) / float64(tasks*labelQuorum*labelsOfTask)
	if n := t.fab.ReplDegraded(); n != 0 {
		return fmt.Errorf("repl probe: %d degraded acks", n)
	}
	return nil
}

// genProbe runs one driver's saturate loop against the stub core
// in-process: what the generator itself costs per sub-op.
func (p *prober) genProbe() {
	clk := newClock()
	d := &driver{id: 0, w: p.w, clk: clk, gen: newTaskGen(p.seed, 0, p.w), tk: newTracker()}
	core := newNullCore()
	core.queue = true
	cl := coreClient{core}
	d.cl, d.pair = cl, cl
	for i := 0; i < workersPerDriver; i++ {
		d.workers = append(d.workers, workerState{id: i + 1})
	}
	win := window{start: 0, end: int64(p.o.warmOf(300 * time.Millisecond))}
	d.rec = newRec(win)
	t0 := clk.now()
	d.saturate(win.end)
	p.out["gen.self_us_per_op"] = float64(clk.now()-t0) / 1e3 / float64(max(d.rec.c.ops(), 1))
}

// runProbes runs every probe and returns the per-layer figures. The
// probes' representative ops have wire_mem's shape whatever workload the
// traced pass ran, so their figures compare across workloads.
func runProbes(clk clock, tr *tracer, seed int64, o runOpts) (map[string]float64, error) {
	if err := os.MkdirAll(workRoot(), 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workRoot(), "probes-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	w, _ := workloadByName("wire_mem")
	p := &prober{clk: clk, tr: tr, seed: seed, w: w, o: o, out: map[string]float64{}}
	if err := p.wireProbes(); err != nil {
		return nil, err
	}
	if err := p.httpProbes(); err != nil {
		return nil, err
	}
	bare, err := p.shardAndFabricProbes()
	if err != nil {
		return nil, err
	}
	if err := p.routerProbes(); err != nil {
		return nil, err
	}
	if err := p.journalProbes(dir, bare); err != nil {
		return nil, err
	}
	if err := p.replProbes(); err != nil {
		return nil, err
	}
	p.genProbe()
	return p.out, nil
}
