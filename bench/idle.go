package main

import (
	"fmt"
	"strconv"
	"sync/atomic"

	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// idle_pool's driver: a large joined pool polling an almost-empty queue
// with 16-op v2 batch frames (15 FetchTask + 1 Heartbeat), closed loop,
// while one quorum-1 task arrives every 10 ms on an open-loop schedule;
// whichever poll finds it first answers it in that connection's next
// frame. In the saturate phase both connections poll and driver 0 adds the
// task to its own frame — at the end, so it is always picked up by a later
// frame, never by the frame that enqueued it. In the paced phase driver 1
// polls for the whole pool and driver 0 only enqueues.

// joinBatch admits n workers in batch frames (idle_pool's set-up joins
// 256 per connection; one round trip each would dominate setup_s).
func (d *driver) joinBatch(n int) error {
	b := d.cl.(*wire.Client).NewBatch() // idle_pool is a wire workload
	slots := make([]*wire.JoinResult, n)
	for i := range slots {
		slots[i] = b.Join("bench-d" + strconv.Itoa(d.id) + "-w" + strconv.Itoa(i))
	}
	if err := b.Do(); err != nil {
		return fmt.Errorf("driver %d join: %w", d.id, err)
	}
	for _, s := range slots {
		if s.Err != nil {
			return fmt.Errorf("driver %d join: %w", d.id, s.Err)
		}
		d.workers = append(d.workers, workerState{id: s.ID})
	}
	return nil
}

// idle runs the polling loop until end, then keeps polling (without new
// tasks) until every enqueued task is answered. p is the schedule of the
// tasks this driver adds to its own frames, or nil; stop, when given, is
// set once another goroutine has stopped enqueuing.
func (d *driver) idle(end int64, p *pacer, stop *atomic.Bool) {
	wc := d.cl.(*wire.Client)
	b := wc.NewBatch()
	var (
		cursor, hb int
		owing      []*workerState       // workers handed a task last frame: their answer goes first
		polled     []*workerState       // workers polled by this frame, in slot order
		fetches    []*wire.FetchResult  // their slots
		submits    []*wire.SubmitResult // slots of owing's answers
	)
	for d.err == nil {
		now := d.clk.now()
		if now >= end {
			stopped := stop == nil || stop.Load()
			if stopped && d.tk.openTotal() == 0 && len(owing) == 0 || now >= end+int64(drainMax) {
				return
			}
			p = nil
		}
		b.Reset()
		submits = submits[:0]
		for _, ws := range owing {
			d.labels = answerInto(d.labels, ws.asg.Records)
			submits = append(submits, b.Submit(ws.id, ws.asg.TaskID, d.labels))
		}
		polled, fetches = polled[:0], fetches[:0]
		for i := 0; i < idleFrameFetches; i++ {
			ws := &d.workers[cursor]
			cursor = (cursor + 1) % len(d.workers)
			polled = append(polled, ws)
			fetches = append(fetches, b.FetchTask(ws.id))
		}
		beat := b.Heartbeat(d.workers[hb].id)
		hb = (hb + 1) % len(d.workers)
		var enq *wire.EnqueueResult
		var due int64
		var specs []server.TaskSpec
		if p != nil && p.due() <= now {
			due = p.sent(now)
			specs = d.gen.batch(1)
			enq = b.SubmitTasks(specs)
		}

		t0 := d.clk.now()
		err := b.Do()
		t1 := d.clk.now()
		if err != nil {
			d.failOp(false, fmt.Errorf("driver %d frame: %w", d.id, err))
			return
		}
		in := d.rec.win.has(t1)
		rtt := float64(t1-t0) / 1e3
		nops := len(submits) + len(fetches) + 1
		if enq != nil {
			nops++
		}
		if in {
			d.rec.c.submits += int64(len(submits))
			d.rec.c.fetches += int64(len(fetches))
			d.rec.c.heartbeats++
			d.rec.ops.add(t1-d.rec.win.start, float64(nops))
		}
		if d.tr != nil {
			d.tr.span(spanFrame, d.id, 0, 0, t0, t1)
		}
		for i, sr := range submits {
			ws := owing[i]
			if sr.Err != nil {
				d.failOp(in, fmt.Errorf("driver %d submit: %w", d.id, sr.Err))
			} else {
				if in {
					d.rec.c.submitUs.add(t1-d.rec.win.start, rtt)
				}
				if d.tr != nil {
					d.tr.span(spanSubmit, d.id, ws.id, ws.asg.TaskID, t0, t1)
				}
				d.ack(ws, sr.Accepted, sr.Terminated, t1, in)
			}
			ws.have = false
		}
		owing = owing[:0]
		for i, fr := range fetches {
			ws := polled[i]
			switch {
			case fr.Err != nil:
				d.failOp(in, fmt.Errorf("driver %d fetch: %w", d.id, fr.Err))
			case fr.OK:
				d.gotAssignment(ws, fr.Assignment, in)
				owing = append(owing, ws)
				if in {
					d.rec.c.handoutUs.add(t1-d.rec.win.start, rtt)
				}
				if d.tr != nil {
					d.tr.span(spanHandout, d.id, ws.id, fr.Assignment.TaskID, t0, t1)
				}
			case in:
				d.rec.c.emptyFetches++
			}
		}
		if beat.Err != nil {
			d.failOp(in, fmt.Errorf("driver %d heartbeat: %w", d.id, beat.Err))
		}
		if enq != nil {
			if in {
				d.rec.c.enqCalls++
				d.rec.c.enqTasks++
			}
			if enq.Err != nil || len(enq.IDs) != 1 {
				d.failOp(in, fmt.Errorf("driver %d enqueue: %d ids, err %v", d.id, len(enq.IDs), enq.Err))
				continue
			}
			for _, ns := range d.tk.enqueued(enq.IDs, specs, d.id, due, d.rec.win.has(due)) {
				d.rec.c.consMs.add(t1-d.rec.win.start, float64(ns)/1e6)
			}
			if d.tr != nil {
				d.tr.span(spanEnqueue, d.id, 0, enq.IDs[0], t0, t1)
			}
		}
	}
}
