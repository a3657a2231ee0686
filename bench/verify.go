package main

import (
	"bytes"
	"fmt"
	"math"

	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// Output checks, run on every run (traced or not) after the last phase. A
// run whose outputs are wrong reports correct=false and fails the command.

// recordPayMicro is the server's default pay per labeled record ($0.02),
// in micro-dollars.
const recordPayMicro = 20000

// checkResults asks the node for every task the generator saw reach
// quorum: each must report complete, with exactly the expected consensus.
// It reads over the node's wire listener in batch frames; the expected
// labels come from the tracker, because a task demoted to a tally by
// retention no longer carries its records.
func (s *session) checkResults() (problems []string) {
	type want struct {
		id     int
		expect uint8
		nrec   uint8
	}
	s.tk.mu.Lock()
	wants := make([]want, 0, len(s.tk.tasks))
	for id, tr := range s.tk.tasks {
		if tr.done {
			wants = append(wants, want{id, tr.expect, tr.nrec})
		}
	}
	early := len(s.tk.early)
	s.tk.mu.Unlock()
	if early > 0 {
		problems = append(problems, fmt.Sprintf("%d acks for tasks the generator never enqueued", early))
	}
	cl, err := wire.Dial(s.t.nodeWire)
	if err != nil {
		return append(problems, "result check: "+err.Error())
	}
	defer cl.Close()
	b := cl.NewBatch()
	slots := make([]*wire.ResultStatus, 0, preloadFrame)
	bad := 0
	for len(wants) > 0 {
		n := min(preloadFrame, len(wants))
		b.Reset()
		slots = slots[:0]
		for _, w := range wants[:n] {
			slots = append(slots, b.Result(w.id))
		}
		if err := b.Do(); err != nil {
			return append(problems, "result check: "+err.Error())
		}
		for i, r := range slots {
			w := wants[i]
			ok := r.Err == nil && r.Status.State == "complete" && len(r.Status.Consensus) == int(w.nrec)
			for j := 0; ok && j < int(w.nrec); j++ {
				ok = r.Status.Consensus[j] == int(w.expect>>j&1)
			}
			if !ok {
				if bad++; bad <= 3 {
					problems = append(problems, fmt.Sprintf("task %d: state %q consensus %v err %v, want complete %0*b (lsb first)",
						w.id, r.Status.State, r.Status.Consensus, r.Err, w.nrec, w.expect))
				}
			}
		}
		wants = wants[n:]
	}
	if bad > 3 {
		problems = append(problems, fmt.Sprintf("%d tasks with a wrong or missing result in all", bad))
	}
	return problems
}

// checkLedger is pay-ledger conservation: work pay plus terminated pay on
// the serving node's /api/costs must equal the records of every answer
// the generator saw acknowledged, at the per-record rate.
func (s *session) checkLedger() []string {
	var paid int64
	for _, d := range s.drivers {
		paid += d.paidRecords
	}
	costs, err := server.NewClient(s.t.nodeHTTP).Costs()
	if err != nil {
		return []string{"costs: " + err.Error()}
	}
	got := int64(math.Round((costs["work_pay_dollars"] + costs["terminated_pay_dollars"]) * 1e6))
	if want := paid * recordPayMicro; got != want {
		return []string{fmt.Sprintf("pay ledger: node paid %d µ$ for work, acknowledged answers are worth %d µ$", got, want)}
	}
	return nil
}

// checkRepl holds routed_repl to a clean replication run: follower caught
// up, no ack released by barrier timeout, no connection re-dialed.
func (s *session) checkRepl() (problems []string) {
	if err := s.t.quiesceRepl(); err != nil {
		problems = append(problems, "replication quiesce: "+err.Error())
	}
	if n := s.t.fab.ReplDegraded(); n != 0 {
		problems = append(problems, fmt.Sprintf("%d acks released degraded (barrier timeout)", n))
	}
	if n := s.t.follower.Reconnects(); n != 0 {
		problems = append(problems, fmt.Sprintf("follower reconnected %d times", n))
	}
	if n := s.t.router.Reconnects(); n != 0 {
		problems = append(problems, fmt.Sprintf("router reconnected %d times", n))
	}
	return problems
}

// settleJournals brings a journaled node to the state its heap and its
// persist directory are read in, and closes its journals. The heap of a
// journaled node depends on how many finished tasks the last compaction
// happened to demote to tallies, and on whether the background compactor
// is holding a snapshot's worth of buffers at that instant; so the
// retention window is allowed to pass over the last answer, one more
// compaction demotes what is left, and closing the journals stops the
// compactor. The node keeps serving from memory afterwards (ClosePersist
// detaches, it does not stop the fabric).
func (s *session) settleJournals() (diskBytes int64, problems []string) {
	t := s.t
	s.clk.sleepUntil(s.lastPhaseEnd + int64(s.settle))
	if err := t.fab.CompactAll(); err != nil {
		problems = append(problems, "final compaction: "+err.Error())
	}
	if t.follower != nil {
		if err := t.quiesceRepl(); err != nil {
			problems = append(problems, "replication quiesce after compaction: "+err.Error())
		}
		t.follower.Stop() // its pulls would fail against a node without journals
	}
	if err := t.fab.ClosePersist(); err != nil {
		problems = append(problems, "closing journals: "+err.Error())
	}
	diskBytes, err := dirBytes(t.dir)
	if err != nil {
		problems = append(problems, "measuring persist dirs: "+err.Error())
	}
	return diskBytes, problems
}

// checkReopen recovers a fresh fabric from the persist directory (whose
// journals settleJournals closed): it must serve a snapshot byte-equal to
// the live node's.
func (s *session) checkReopen() []string {
	t := s.t
	live, err := server.NewClient(t.nodeHTTP).Snapshot()
	if err != nil {
		return []string{"live snapshot: " + err.Error()}
	}
	fresh := fabric.NewNode(server.Config{SpeculationLimit: 1}, t.w.shards, 0, 1)
	err = fresh.OpenPersist(fabric.PersistOptions{Dir: t.persistDir(), Retention: persistRetention, Fsync: "group"})
	if err != nil {
		return []string{"reopening persist dir: " + err.Error()}
	}
	defer fresh.ClosePersist()
	recovered, err := fresh.Snapshot()
	if err != nil {
		return []string{"recovered snapshot: " + err.Error()}
	}
	if !bytes.Equal(live, recovered) {
		return []string{fmt.Sprintf("recovered snapshot (%d bytes) differs from the live one (%d bytes)", len(recovered), len(live))}
	}
	return nil
}

// finish verifies the run's outputs, measures what is left on the heap and
// on disk, and tears the session down. It returns every problem found.
func (s *session) finish() (problems []string, heapPerTask float64, diskBytes int64) {
	for _, d := range s.drivers {
		if d.err != nil {
			problems = append(problems, d.err.Error())
		}
	}
	if s.t.w.repl {
		problems = append(problems, s.checkRepl()...)
	}
	problems = append(problems, s.checkResults()...)
	problems = append(problems, s.checkLedger()...)
	if s.t.w.durable {
		var ps []string
		diskBytes, ps = s.settleJournals()
		problems = append(problems, ps...)
	}

	// The harness's own bookkeeping is dropped before the heap is read, so
	// the figure is the servers' state, not the tracker's.
	tasks := s.tasksEnqueued()
	s.tk.tasks, s.tk.early = nil, nil
	for _, d := range s.drivers {
		d.rec = nil
	}
	heapPerTask = float64(liveHeap()) / float64(tasks)

	if s.t.w.durable {
		problems = append(problems, s.checkReopen()...)
	}
	if err := s.tearDown(); err != nil {
		problems = append(problems, "shutdown: "+err.Error())
	}
	return problems, heapPerTask, diskBytes
}
