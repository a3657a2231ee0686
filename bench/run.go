package main

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/clamshell/clamshell/internal/wire"
)

// One run of one workload: set-up, the timed phases, verification, and the
// numbers that come out of them.

const (
	warmSaturate = time.Second            // discarded head of the saturate phase
	warmPaced    = 300 * time.Millisecond // discarded head of the paced phase
	drainMax     = 5 * time.Second        // cap on waiting for open tasks after a phase
	// setupRepeats is how many times a run sets up (the last one is the one
	// measured against); setup_s is their median.
	setupRepeats = 3
	// preloadFrame is the op count of one set-up batch frame.
	preloadFrame = 1000
)

// session is one booted topology with its joined drivers.
type session struct {
	t       *topology
	clk     clock
	tk      *tracker
	drivers [numDrivers]*driver
	backlog int // standing-backlog tasks loaded at set-up
	// lastPhaseEnd is when the drivers of the latest timed phase returned.
	lastPhaseEnd int64
	// settle is how long after it a journaled node's state is read: the
	// retention window (the smoke test scales it down and reads earlier).
	settle time.Duration
}

// preload fills the node with the standing backlog over its wire listener,
// in batch frames: backlogTasks quorum-1 priority-0 tasks, each then
// handed to two parked workers that hold it for the rest of the run.
//
// Why parked holders: the measured workers answer in microseconds, so a
// pickable backlog is drained within seconds (idle workers fall through
// to it on every poll) and the paced phase would never see an idle pool.
// A task covered by one assignment per outstanding answer plus one
// speculative duplicate (-speculation 1) is not offered to anyone else, so
// the backlog stands — 20 000 live tasks and 40 000 pool members in every
// map, snapshot and compaction — for as long as its holders stay in the
// pool (the 2 min worker timeout outlasts any run).
func preload(addr string, seed int64, tasks int) error {
	cl, err := wire.Dial(addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	for from := 0; from < tasks; from += preloadFrame {
		n := min(preloadFrame, tasks-from)
		ids, err := cl.SubmitTasks(backlogSpecs(seed, from, n))
		if err != nil || len(ids) != n {
			return fmt.Errorf("backlog enqueue: %d ids, err %v", len(ids), err)
		}
	}
	b := cl.NewBatch()
	joins := make([]*wire.JoinResult, 0, preloadFrame)
	fetches := make([]*wire.FetchResult, 0, preloadFrame)
	for left := 2 * tasks; left > 0; left -= preloadFrame {
		n := min(preloadFrame, left)
		b.Reset()
		joins = joins[:0]
		for i := 0; i < n; i++ {
			joins = append(joins, b.Join("holder"))
		}
		if err := b.Do(); err != nil {
			return fmt.Errorf("holder join: %w", err)
		}
		ids := make([]int, n)
		for i, j := range joins {
			if j.Err != nil {
				return fmt.Errorf("holder join: %w", j.Err)
			}
			ids[i] = j.ID
		}
		b.Reset()
		fetches = fetches[:0]
		for _, id := range ids {
			fetches = append(fetches, b.FetchTask(id))
		}
		if err := b.Do(); err != nil {
			return fmt.Errorf("holder fetch: %w", err)
		}
		for _, f := range fetches {
			if f.Err != nil || !f.OK || !isBacklog(f.Assignment) {
				return fmt.Errorf("holder fetch: ok=%v err=%v", f.OK, f.Err)
			}
		}
	}
	return nil
}

// setUp boots w's topology, loads the backlog, attaches the follower and
// joins the pool. Everything here is what setup_s times.
func setUp(w workload, seed int64, o runOpts) (*session, error) {
	t, err := boot(w)
	if err != nil {
		return nil, err
	}
	s := &session{t: t, clk: newClock(), tk: newTracker(), backlog: o.backlog(), settle: o.warmOf(persistRetention)}
	fail := func(err error) (*session, error) {
		s.tearDown()
		return nil, err
	}
	if err := preload(t.nodeWire, seed, s.backlog); err != nil {
		return fail(err)
	}
	if w.repl {
		if err := t.startFollower(); err != nil {
			return fail(err)
		}
	}
	for i := range s.drivers {
		d, err := newDriver(i, t, s.clk, s.tk, seed)
		if err != nil {
			return fail(err)
		}
		s.drivers[i] = d
		if w.idle {
			err = d.joinBatch(idleWorkers / numDrivers)
		} else {
			err = d.join(workersPerDriver)
		}
		if err != nil {
			return fail(err)
		}
	}
	return s, nil
}

// tearDown closes the client connections and shuts the topology down.
func (s *session) tearDown() error {
	for _, d := range s.drivers {
		if d != nil {
			d.close()
		}
	}
	return s.t.shutdown()
}

// usage is a snapshot of the process's CPU time and allocation counters.
type usage struct {
	cpuNs   int64
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpuNs:   ru.Utime.Nano() + ru.Stime.Nano(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
}

// phaseOut is the merged outcome of one timed phase.
type phaseOut struct {
	counts
	seconds   float64
	labelRate float64 // labels/s, median 1 s window
	opRate    float64 // client sub-ops/s, median 1 s window
	cpuNs     int64
	mallocs   uint64
	bytes     uint64
	lateMs    []float64
}

// timed runs one phase: it arms every driver's recorder on win, starts
// the drivers (fn per driver, nil to sit the phase out), samples process
// usage at the window's edges, and merges what the drivers recorded.
func (s *session) timed(win window, fns [numDrivers]func(d *driver)) (phaseOut, error) {
	var wg sync.WaitGroup
	for i, d := range s.drivers {
		d.rec = newRec(win)
		if fns[i] == nil {
			continue
		}
		wg.Add(1)
		go func(d *driver, fn func(*driver)) {
			defer wg.Done()
			fn(d)
		}(d, fns[i])
	}
	s.clk.sleepUntil(win.start)
	u0 := readUsage()
	s.clk.sleepUntil(win.end)
	u1 := readUsage()
	wg.Wait()
	s.lastPhaseEnd = s.clk.now()

	out := phaseOut{seconds: float64(win.end-win.start) / 1e9, cpuNs: u1.cpuNs - u0.cpuNs, mallocs: u1.mallocs - u0.mallocs, bytes: u1.bytes - u0.bytes}
	total := newRec(win)
	var errs []error
	for _, d := range s.drivers {
		out.counts.add(&d.rec.c)
		total.labels.merge(d.rec.labels)
		total.ops.merge(d.rec.ops)
		if d.err != nil {
			errs = append(errs, d.err)
		}
	}
	out.labelRate, out.opRate = total.labels.perSecond(), total.ops.perSecond()
	return out, errors.Join(errs...)
}

// saturate runs the closed-loop phase with secs measured seconds after
// the warm-up: both drivers flat out. On idle_pool that is both halves of
// the pool polling in batch frames while driver 0 also adds its scheduled
// task to a frame every pacedEvery.
func (s *session) saturate(warm time.Duration, secs float64) (phaseOut, error) {
	runtime.GC()
	begin := s.clk.now()
	win := window{start: begin + int64(warm), end: begin + int64(warm) + int64(secs*1e9)}
	if s.t.w.idle {
		p := newPacer(begin, s.t.w.pacedEvery)
		out, err := s.timed(win, [numDrivers]func(*driver){
			func(d *driver) { d.idle(win.end, p, nil) },
			func(d *driver) { d.idle(win.end, nil, nil) },
		})
		if err == nil && s.tk.openTotal() != 0 {
			err = fmt.Errorf("%d pool tasks never answered", s.tk.openTotal())
		}
		return out, err
	}
	run := func(d *driver) { d.saturate(win.end) }
	return s.timed(win, [numDrivers]func(*driver){run, run})
}

// drain lets driver 1 run the whole pool until no task is open, outside
// any measured window (the saturate phase ends with its windows full).
func (s *session) drain() error {
	d := s.drivers[1]
	d.rec = newRec(window{})
	var stop atomic.Bool
	stop.Store(true)
	d.work(&stop, s.clk.now()+int64(drainMax))
	if d.err != nil {
		return d.err
	}
	if n := s.tk.openTotal(); n != 0 {
		return fmt.Errorf("%d tasks still open after a %v drain", n, drainMax)
	}
	return nil
}

// paced runs the open-loop phase: driver 0 enqueues on schedule, driver 1
// runs the whole pool alone (16 workers with separate calls and a back-off;
// on idle_pool all 512 in batch frames, closed loop), so the latencies are
// those of a pool with a processor to itself. It first hands driver 0's
// workers to driver 1 and drains what the saturate phase left open.
func (s *session) paced(warm time.Duration, secs float64) (phaseOut, error) {
	d0, d1 := s.drivers[0], s.drivers[1]
	d1.workers = append(d1.workers, d0.workers...)
	d0.workers = nil
	if !s.t.w.idle { // idle_pool's loop ends with nothing open
		if err := s.drain(); err != nil {
			return phaseOut{}, err
		}
	}
	runtime.GC()
	begin := s.clk.now()
	win := window{start: begin + int64(warm), end: begin + int64(warm) + int64(secs*1e9)}
	p := newPacer(begin, s.t.w.pacedEvery)
	var stop atomic.Bool
	pool := func(d *driver) { d.work(&stop, win.end+int64(drainMax)) }
	if s.t.w.idle {
		pool = func(d *driver) { d.idle(win.end, nil, &stop) }
	}
	out, err := s.timed(win, [numDrivers]func(*driver){
		func(d *driver) { d.request(p, win.end); stop.Store(true) },
		pool,
	})
	out.lateMs = p.lateMs
	if err == nil && s.tk.openTotal() != 0 {
		err = fmt.Errorf("%d paced tasks never reached quorum", s.tk.openTotal())
	}
	return out, err
}

// tasksEnqueued is every task this session ever put on the node.
func (s *session) tasksEnqueued() int {
	s.tk.mu.Lock()
	defer s.tk.mu.Unlock()
	return s.backlog + len(s.tk.tasks)
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// sortedCopy returns xs sorted ascending without disturbing xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// p50 is the median by nearest rank; 0 with no samples.
func p50(xs []float64) float64 {
	v, _ := percentile(sortedCopy(xs), 0.5)
	return v
}
