package main

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// The label-workload drivers: the closed-loop saturate phase and the
// open-loop paced phase, both run by two goroutines with one client
// connection each.

// opClient is the op surface the drivers use; *wire.Client and
// *server.Client both satisfy it.
type opClient interface {
	Join(name string) (int, error)
	SubmitTasks(tasks []server.TaskSpec) ([]int, error)
	FetchTask(workerID int) (server.Assignment, bool, error)
	Submit(workerID, taskID int, labels []int) (accepted, terminated bool, err error)
}

// pairClient is the coalescing surface of the wire client: the answer and
// the next fetch in one v2 frame, as clamshell-workers does.
type pairClient interface {
	SubmitAndFetch(workerID, taskID int, labels []int) (accepted, terminated bool, next server.Assignment, ok bool, err error)
}

// dialClient opens one measured client connection for the workload's
// transport. HTTP clients get a transport of their own capped at one
// connection, so "one connection per driver" holds on both transports.
func dialClient(t *topology) (opClient, func(), error) {
	if t.w.transport == "http" {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		cl := &server.Client{BaseURL: t.nodeHTTP, HTTP: &http.Client{Transport: tr}}
		return cl, tr.CloseIdleConnections, nil
	}
	cl, err := wire.Dial(t.clientWire)
	if err != nil {
		return nil, nil, err
	}
	return cl, func() { cl.Close() }, nil
}

// clock is the run's monotonic nanosecond clock.
type clock struct{ epoch time.Time }

func newClock() clock { return clock{epoch: time.Now()} }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// spinTail is the last stretch of a precise wait, spent spinning on the
// clock: the kernel wakes a nanosleep some tens of µs late.
const spinTail = 100 * time.Microsecond

// nap blocks the calling thread in the kernel for d. time.Sleep cannot be
// used for the generator's waits. With an idle scheduler the Go runtime
// rounds its timer wait up to a whole millisecond of epoll timeout, so
// every time.Sleep returns about 1.1 ms late: a millisecond of generator
// lateness in every open-loop latency, and a 200 µs worker back-off that
// is really 1.1 ms. With a busy one (a connection polling closed-loop next
// to it) a 7 ms time.Sleep was seen to return after 200 ms. Spinning
// instead would pin the two processors the servers' background goroutines
// (compactor, group commit, follower) need. A nanosleep(2) is accurate to
// some tens of µs and holds no processor.
func nap(d time.Duration) {
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an interrupted nap is merely short; callers re-check the clock
}

// sleepUntil waits for t on the run clock, accurate to a few µs: it naps
// to within spinTail of t and spins on the clock for the rest.
func (c clock) sleepUntil(t int64) {
	for {
		d := time.Duration(t - c.now())
		switch {
		case d <= 0:
			return
		case d > spinTail:
			nap(d - spinTail)
		}
	}
}

// track is what the harness remembers about one task it enqueued.
type track struct {
	due      int64 // when the task was due to be enqueued (run clock)
	expect   uint8 // expected consensus, one bit per record
	nrec     uint8
	quorum   uint8
	accepted uint8
	driver   uint8
	timed    bool // its consensus latency is a sample (it was due inside a measured window)
	done     bool // quorum-th accepted ack seen
}

// tracker follows every enqueued task to its quorum. Both drivers feed it:
// a task enqueued over one connection is usually answered over the other.
type tracker struct {
	mu    sync.Mutex
	tasks map[int]track
	// early holds accepted acks that overtook their task's registration:
	// the other driver can fetch and answer a task while the enqueue
	// response is still on its way back to the enqueuing driver.
	early map[int][]int64
	open  [numDrivers]atomic.Int64 // tasks enqueued by each driver and not yet at quorum
}

func newTracker() *tracker {
	return &tracker{tasks: make(map[int]track), early: make(map[int][]int64)}
}

// enqueued registers freshly acknowledged tasks and returns the consensus
// latencies (ns) of any that early acks had already completed.
func (tk *tracker) enqueued(ids []int, specs []server.TaskSpec, driver int, due int64, timed bool) (consensus []int64) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	for i, id := range ids {
		tr := track{
			due: due, expect: expectBits(specs[i].Records), nrec: uint8(len(specs[i].Records)),
			quorum: uint8(specs[i].Quorum), driver: uint8(driver), timed: timed,
		}
		if acks := tk.early[id]; len(acks) > 0 {
			delete(tk.early, id)
			tr.accepted = uint8(len(acks))
			if tr.accepted >= tr.quorum {
				tr.done = true
				if timed {
					consensus = append(consensus, acks[tr.quorum-1]-due)
				}
			}
		}
		if !tr.done {
			tk.open[driver].Add(1)
		}
		tk.tasks[id] = tr
	}
	return consensus
}

// accepted records one accepted answer for a task at time now. When it is
// the quorum-th, completed is true and consensusNs is the time since the
// task was due; timed says whether that latency is a sample.
func (tk *tracker) accepted(id int, now int64) (consensusNs int64, completed, timed bool) {
	tk.mu.Lock()
	defer tk.mu.Unlock()
	tr, ok := tk.tasks[id]
	if !ok {
		tk.early[id] = append(tk.early[id], now)
		return 0, false, false
	}
	tr.accepted++
	if !tr.done && tr.accepted >= tr.quorum {
		tr.done = true
		tk.open[tr.driver].Add(-1)
		tk.tasks[id] = tr
		return now - tr.due, true, tr.timed
	}
	tk.tasks[id] = tr
	return 0, false, false
}

func (tk *tracker) openTotal() int64 {
	var n int64
	for i := range tk.open {
		n += tk.open[i].Load()
	}
	return n
}

// counts are one driver's op tallies inside a measured window.
type counts struct {
	enqCalls, enqTasks          int64
	fetches, emptyFetches       int64
	submits, pairs              int64
	accepted, terminated        int64
	heartbeats                  int64
	labels                      int64 // accepted answers × records
	failed                      int64 // ops that errored, were refused, returned something wrong, or handed out standing backlog
	handoutUs, submitUs, consMs latSeries
}

func (c *counts) ops() int64 { return c.enqCalls + c.fetches + c.submits + c.heartbeats }

func (c *counts) add(o *counts) {
	c.enqCalls += o.enqCalls
	c.enqTasks += o.enqTasks
	c.fetches += o.fetches
	c.emptyFetches += o.emptyFetches
	c.submits += o.submits
	c.pairs += o.pairs
	c.accepted += o.accepted
	c.terminated += o.terminated
	c.heartbeats += o.heartbeats
	c.labels += o.labels
	c.failed += o.failed
	c.handoutUs.merge(o.handoutUs)
	c.submitUs.merge(o.submitUs)
	c.consMs.merge(o.consMs)
}

// window is the measured part of a phase: events are recorded only while
// start <= now < end, so warm-up and drain leave no trace in the numbers.
type window struct {
	start, end int64
}

func (w window) has(t int64) bool { return t >= w.start && t < w.end }

// rec is one driver's recording for one phase.
type rec struct {
	win    window
	c      counts
	labels *windowRate
	ops    *windowRate
}

func newRec(win window) *rec {
	return &rec{win: win, labels: newWindowRate(win.end - win.start), ops: newWindowRate(win.end - win.start)}
}

// workerState is one logical worker multiplexed on a driver's connection.
type workerState struct {
	id   int
	have bool
	asg  server.Assignment
}

// driver is one load-generating goroutine's state: a connection, its
// logical workers and its seeded task stream.
type driver struct {
	id      int
	w       workload
	clk     clock
	cl      opClient
	pair    pairClient // nil on HTTP
	close   func()
	gen     *taskGen
	tk      *tracker
	workers []workerState
	labels  []int
	tr      *tracer // nil unless this is the traced pass
	rec     *rec
	err     error // first transport-level failure; the run is void

	// paidRecords counts the records of every acknowledged answer
	// (accepted or terminated) over the whole run, warm-up and drain
	// included: what the server's pay ledger must add up to.
	paidRecords int64
}

func newDriver(id int, t *topology, clk clock, tk *tracker, seed int64) (*driver, error) {
	cl, closeFn, err := dialClient(t)
	if err != nil {
		return nil, err
	}
	d := &driver{id: id, w: t.w, clk: clk, cl: cl, close: closeFn, gen: newTaskGen(seed, id, t.w), tk: tk}
	d.pair, _ = cl.(pairClient)
	return d, nil
}

// join admits n workers over the driver's connection.
func (d *driver) join(n int) error {
	for i := 0; i < n; i++ {
		id, err := d.cl.Join("bench-d" + strconv.Itoa(d.id) + "-w" + strconv.Itoa(len(d.workers)))
		if err != nil {
			return fmt.Errorf("driver %d join: %w", d.id, err)
		}
		d.workers = append(d.workers, workerState{id: id})
	}
	return nil
}

// failOp books a failed op (counted when it fell in the measured window)
// and keeps the first such error: a transport-level failure voids the run.
func (d *driver) failOp(in bool, err error) {
	if in {
		d.rec.c.failed++
	}
	if d.err == nil {
		d.err = err
	}
}

// enqueue sends one SubmitTasks batch of n tasks due at due and registers
// them. timed marks their consensus latency as a sample.
func (d *driver) enqueue(n int, due int64, timed bool) {
	specs := d.gen.batch(n)
	t0 := d.clk.now()
	ids, err := d.cl.SubmitTasks(specs)
	t1 := d.clk.now()
	in := d.rec.win.has(t1)
	if in {
		d.rec.c.enqCalls++
		d.rec.c.enqTasks += int64(n)
		d.rec.ops.add(t1-d.rec.win.start, 1)
	}
	if err != nil || len(ids) != n {
		d.failOp(in, fmt.Errorf("driver %d enqueue: %d ids, err %v", d.id, len(ids), err))
		return
	}
	for _, ns := range d.tk.enqueued(ids, specs, d.id, due, timed) {
		d.rec.c.consMs.add(t1-d.rec.win.start, float64(ns)/1e6)
	}
	if d.tr != nil {
		for _, id := range ids {
			d.tr.span(spanEnqueue, d.id, 0, id, t0, t1)
		}
	}
}

// gotAssignment stores a hand-out on the worker and checks it is not
// standing backlog (which is covered by parked holders and must never
// reach a measured worker).
func (d *driver) gotAssignment(ws *workerState, a server.Assignment, in bool) {
	ws.have, ws.asg = true, a
	if isBacklog(a) && in {
		d.rec.c.failed++
	}
}

// ack books one acknowledged answer.
func (d *driver) ack(ws *workerState, accepted, terminated bool, now int64, in bool) {
	nrec := int64(len(ws.asg.Records))
	if accepted || terminated {
		d.paidRecords += nrec
	}
	switch {
	case accepted:
		ns, completed, timed := d.tk.accepted(ws.asg.TaskID, now)
		if in {
			d.rec.c.accepted++
			d.rec.c.labels += nrec
			d.rec.labels.add(now-d.rec.win.start, float64(nrec))
		}
		if completed && timed {
			d.rec.c.consMs.add(now-d.rec.win.start, float64(ns)/1e6)
		}
		if completed && d.tr != nil {
			d.tr.span(spanTask, d.id, 0, ws.asg.TaskID, now-ns, now)
		}
	case terminated:
		if in {
			d.rec.c.terminated++
		}
	default:
		if in {
			d.rec.c.failed++ // acknowledged as neither: not a protocol outcome
		}
	}
}

// stepPaired advances one worker the way clamshell-workers does on wire:
// the answer and the next fetch in one frame, a lone fetch when idle.
// It reports whether the worker made progress.
func (d *driver) stepPaired(ws *workerState) bool {
	if !ws.have {
		return d.fetch(ws, false)
	}
	d.labels = answerInto(d.labels, ws.asg.Records)
	t0 := d.clk.now()
	acc, term, next, ok, err := d.pair.SubmitAndFetch(ws.id, ws.asg.TaskID, d.labels)
	t1 := d.clk.now()
	in := d.rec.win.has(t1)
	if in {
		d.rec.c.submits++
		d.rec.c.fetches++
		d.rec.c.pairs++
		d.rec.ops.add(t1-d.rec.win.start, 2)
	}
	if err != nil {
		d.failOp(in, fmt.Errorf("driver %d submit+fetch: %w", d.id, err))
		ws.have = false
		return false
	}
	if d.tr != nil {
		d.tr.span(spanSubmit, d.id, ws.id, ws.asg.TaskID, t0, t1)
	}
	d.ack(ws, acc, term, t1, in)
	ws.have = false
	if ok {
		d.gotAssignment(ws, next, in)
		if d.tr != nil {
			d.tr.span(spanHandout, d.id, ws.id, next.TaskID, t0, t1)
		}
	} else if in {
		d.rec.c.emptyFetches++
	}
	return true
}

// submit sends the worker's answer as a call of its own and samples its
// round trip.
func (d *driver) submit(ws *workerState, sample bool) {
	d.labels = answerInto(d.labels, ws.asg.Records)
	t0 := d.clk.now()
	acc, term, err := d.cl.Submit(ws.id, ws.asg.TaskID, d.labels)
	t1 := d.clk.now()
	in := d.rec.win.has(t1)
	if in {
		d.rec.c.submits++
		d.rec.ops.add(t1-d.rec.win.start, 1)
		if sample {
			d.rec.c.submitUs.add(t1-d.rec.win.start, float64(t1-t0)/1e3)
		}
	}
	ws.have = false
	if err != nil {
		d.failOp(in, fmt.Errorf("driver %d submit: %w", d.id, err))
		return
	}
	if d.tr != nil {
		d.tr.span(spanSubmit, d.id, ws.id, ws.asg.TaskID, t0, t1)
	}
	d.ack(ws, acc, term, t1, in)
}

// fetch polls for the worker and reports whether it was handed work. With
// sample set, the round trip of a fetch that returned an assignment is a
// hand-out latency sample.
func (d *driver) fetch(ws *workerState, sample bool) bool {
	t0 := d.clk.now()
	a, ok, err := d.cl.FetchTask(ws.id)
	t1 := d.clk.now()
	in := d.rec.win.has(t1)
	if in {
		d.rec.c.fetches++
		d.rec.ops.add(t1-d.rec.win.start, 1)
	}
	if err != nil {
		d.failOp(in, fmt.Errorf("driver %d fetch: %w", d.id, err))
		return false
	}
	if !ok {
		if in {
			d.rec.c.emptyFetches++
		}
		return false
	}
	d.gotAssignment(ws, a, in)
	if in && sample {
		d.rec.c.handoutUs.add(t1-d.rec.win.start, float64(t1-t0)/1e3)
	}
	if d.tr != nil {
		d.tr.span(spanHandout, d.id, ws.id, a.TaskID, t0, t1)
	}
	return true
}

// stepSplit advances one worker with separate Submit and FetchTask calls
// (what an HTTP worker does, and what the paced phase does on both
// transports so each call's round trip can be sampled).
func (d *driver) stepSplit(ws *workerState, sample bool) bool {
	progressed := false
	if ws.have {
		d.submit(ws, sample)
		progressed = true
	}
	if d.fetch(ws, sample) {
		progressed = true
	}
	return progressed
}

// saturate is the closed loop: keep the window of outstanding tasks full
// and advance every worker as fast as the connection allows, until end.
func (d *driver) saturate(end int64) {
	for d.err == nil {
		now := d.clk.now()
		if now >= end {
			return
		}
		if d.tk.open[d.id].Load() <= int64(d.w.window-d.w.enqBatch) {
			d.enqueue(d.w.enqBatch, now, false)
		}
		progressed := false
		for i := range d.workers {
			ws := &d.workers[i]
			if d.pair != nil {
				progressed = d.stepPaired(ws) || progressed
			} else {
				progressed = d.stepSplit(ws, false) || progressed
			}
		}
		if !progressed {
			nap(workerBackoff)
		}
	}
}

// request is the paced phase's open-loop requester: one batch per
// schedule slot until end, each timed from its due time.
func (d *driver) request(p *pacer, end int64) {
	for d.err == nil {
		due := p.due()
		if due >= end {
			return
		}
		d.clk.sleepUntil(due)
		p.sent(d.clk.now())
		d.enqueue(d.w.pacedBatch, due, d.rec.win.has(due))
	}
}

// work is the paced phase's worker pool: every logical worker closed-loop
// with separate calls, backing off when a whole round found nothing. It
// runs until stop is set and no timed task is left open, or the deadline.
func (d *driver) work(stop *atomic.Bool, deadline int64) {
	for d.err == nil && d.clk.now() < deadline {
		progressed := false
		for i := range d.workers {
			progressed = d.stepSplit(&d.workers[i], true) || progressed
		}
		if progressed {
			continue
		}
		if stop.Load() && d.tk.openTotal() == 0 {
			return
		}
		nap(workerBackoff)
	}
}
