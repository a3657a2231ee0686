package server

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/metrics"
	"github.com/clamshell/clamshell/internal/quality"
	"github.com/clamshell/clamshell/internal/worker"
)

// The exported Shard API: the building blocks the fabric router composes
// into the retainer-pool protocol. Every method takes the shard's own lock
// and returns — a method never calls into another shard, so the fabric can
// sequence calls across shards without any lock-ordering hazard. The
// fabric's HTTP handlers are built from these accessors alone; its golden
// compat transcript pins the resulting protocol byte-for-byte.

// Join admits a worker into this shard's retainer pool and returns its
// globally-unique id (the id encodes the shard: (id-1) mod count == index).
func (s *Shard) Join(name string) int {
	return s.join(name)
}

// Heartbeat refreshes a worker's liveness. It reports false for a worker
// this shard does not know.
func (s *Shard) Heartbeat(workerID int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	pw, ok := s.workers[workerID]
	if !ok {
		return false
	}
	pw.lastSeen = s.cfg.Now()
	return true
}

// Leave removes a worker; any local assignment returns to the queue, and a
// stolen assignment is left for the fabric to release via DrainOrphans.
func (s *Shard) Leave(workerID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeWorker(workerID, "leave")
}

// Enqueue admits one task spec (records already validated non-empty) and
// returns its globally-unique id.
func (s *Shard) Enqueue(spec TaskSpec) int {
	s.mu.Lock()
	id := s.enqueueLocked(spec)
	var ev LabelEvent
	sink := s.labelSink
	if sink != nil {
		ev = enqueuedEvent(s.tasks[id])
	}
	s.mu.Unlock()
	if sink != nil && ev.Kind != 0 {
		sink(ev)
	}
	return id
}

// FetchState classifies a worker's situation at the start of a fetch.
type FetchState int

const (
	// FetchUnknown: the worker is not in this shard's pool.
	FetchUnknown FetchState = iota
	// FetchRetired: the worker was retired by pool maintenance.
	FetchRetired
	// FetchCurrent: the worker has an in-flight assignment to re-deliver.
	FetchCurrent
	// FetchIdle: the worker is waiting and can be handed new work.
	FetchIdle
)

// BeginFetch expires stale workers, refreshes the polling worker's
// liveness and classifies it. When the state is FetchCurrent, current is
// the in-flight task id (which may live on another shard if the work was
// stolen).
func (s *Shard) BeginFetch(workerID int) (current int, st FetchState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireWorkers()
	if s.retired[workerID] {
		return 0, FetchRetired
	}
	pw, ok := s.workers[workerID]
	if !ok {
		return 0, FetchUnknown
	}
	pw.lastSeen = s.cfg.Now()
	if pw.current != 0 {
		return pw.current, FetchCurrent
	}
	return 0, FetchIdle
}

// TaskPayload returns the assignment payload for a task on this shard
// (re-delivery of an in-flight assignment).
func (s *Shard) TaskPayload(taskID int) (Assignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.tasks[taskID]
	if !ok {
		return Assignment{}, false
	}
	return s.assignmentOf(u), true
}

// PoolSize reports the shard's current worker-pool size without taking the
// shard lock (join-time placement reads it on every join).
func (s *Shard) PoolSize() int { return int(s.poolSize.Load()) }

// PickLocal picks a task on this shard for one of its own idle workers and
// assigns it (ends the paid-wait span, marks the unit active). starvedOnly
// restricts the pass to tasks still missing primary answers, so the fabric
// can order local starved → stolen starved → speculative. It reports
// false when the shard has nothing for this worker.
func (s *Shard) PickLocal(workerID int, starvedOnly bool) (Assignment, bool) {
	s.mu.Lock()
	pw, ok := s.workers[workerID]
	if !ok || pw.current != 0 {
		s.mu.Unlock()
		return Assignment{}, false
	}
	var u *workUnit
	if starvedOnly {
		u = s.pickPart(dispatchStarved, workerID)
	} else {
		u = s.pick(workerID)
	}
	if u == nil {
		s.mu.Unlock()
		return Assignment{}, false
	}
	s.settleWait(pw)
	s.assign(u, workerID)
	pw.current = u.id
	pw.fetchedAt = s.cfg.Now()
	a := s.assignmentOf(u)
	wait, hasWait := handoutWait(u, pw.fetchedAt)
	s.mu.Unlock()
	if hasWait {
		s.handoutRec.Record(wait)
	}
	return a, true
}

// PickSteal picks a task on this shard for a worker homed on another shard
// (work stealing) and marks it active for that worker. starvedOnly
// restricts the pass to tasks still missing primary answers, so the fabric
// can exhaust starved work everywhere before handing out speculative
// straggler duplicates — keeping the paper's starved-before-speculative
// ordering fabric-wide. The caller completes the assignment on the
// worker's home shard with AssignStolen, or rolls back with ReleaseActive.
func (s *Shard) PickSteal(workerID int, starvedOnly bool) (taskID int, payload Assignment, ok bool) {
	s.mu.Lock()
	u := s.pickPart(dispatchStarved, workerID)
	if u == nil && !starvedOnly {
		u = s.pickPart(dispatchSpeculative, workerID)
	}
	if u == nil {
		s.mu.Unlock()
		return 0, Assignment{}, false
	}
	s.assign(u, workerID)
	id, a := u.id, s.assignmentOf(u)
	wait, hasWait := handoutWait(u, s.cfg.Now())
	s.mu.Unlock()
	if hasWait {
		s.handoutRec.Record(wait)
	}
	return id, a, true
}

// handoutWait computes the task's time-in-queue at hand-out. Tasks whose
// enqueue time did not survive (journal replay) report nothing rather than
// a bogus epoch-sized wait.
func handoutWait(u *workUnit, at time.Time) (float64, bool) {
	if u.enqueuedAt == 0 {
		return 0, false
	}
	d := float64(at.UnixNano()-u.enqueuedAt) / 1e9
	if d < 0 {
		d = 0
	}
	return d, true
}

// AssignStolen records a stolen assignment on the worker's home shard. It
// reports false if the worker vanished or picked up other work in the
// meantime — the caller must then roll the steal back with ReleaseActive on
// the task's shard.
func (s *Shard) AssignStolen(workerID, taskID int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	pw, ok := s.workers[workerID]
	if !ok || pw.current != 0 {
		return false
	}
	s.settleWait(pw)
	pw.current = taskID
	pw.fetchedAt = s.cfg.Now()
	return true
}

// ReleaseActive clears a worker's active mark on a task: the rollback half
// of a failed steal, and the release path for orphaned cross-shard
// assignments.
func (s *Shard) ReleaseActive(taskID, workerID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if u, ok := s.tasks[taskID]; ok {
		delete(u.active, workerID)
		s.reindex(u)
	}
}

// ClearAssignment drops a worker's in-flight assignment if it still points
// at taskID — the recovery path for a dangling assignment whose payload can
// no longer be served (e.g. the owning shard was restored away from under a
// stolen task). The worker returns to the paid-wait state so the caller can
// hand it fresh work.
func (s *Shard) ClearAssignment(workerID, taskID int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	pw, ok := s.workers[workerID]
	if !ok || pw.current != taskID {
		return
	}
	pw.current = 0
	s.startWait(pw)
}

// DrainOrphans returns and clears the cross-shard assignments left dangling
// by removed workers. The fabric releases each on the task's shard. The
// atomic emptiness check keeps the (overwhelmingly common) no-orphan case
// off the shard lock: the fabric calls this on the poll hot path.
func (s *Shard) DrainOrphans() []Orphan {
	if s.orphanCount.Load() == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.orphans
	s.orphans = nil
	s.orphanCount.Store(0)
	return out
}

// WorkerKnown reports whether the worker is in this shard's pool.
func (s *Shard) WorkerKnown(workerID int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.workers[workerID]
	return ok
}

// SubmitOutcome classifies the task-side result of an answer submission.
type SubmitOutcome int

const (
	// SubmitUnknownTask: no such task on this shard.
	SubmitUnknownTask SubmitOutcome = iota
	// SubmitBadLabels: the label vector does not match the task.
	SubmitBadLabels
	// SubmitAccepted: the answer was recorded toward the quorum.
	SubmitAccepted
	// SubmitTerminated: a straggler lost the race — paid but discarded.
	SubmitTerminated
	// SubmitDuplicate: a replayed submission (client retry after a lost
	// response) — the worker's answer is already on the books, so the
	// caller re-acknowledges it without paying or counting it again.
	SubmitDuplicate
	// SubmitDuplicateTerminated: a replayed straggler submission whose
	// termination was already acknowledged and paid — re-acknowledged
	// without paying or counting it again.
	SubmitDuplicateTerminated
)

// AcceptAnswer applies the task-side half of an answer submission on the
// task's shard: validation, the straggler-termination race, pay accrual
// and quorum accounting. records is the task's record count (needed by the
// worker-side half for latency accounting). The worker-side half —
// FinishAssignment on the worker's home shard — must follow on the success
// outcomes.
func (s *Shard) AcceptAnswer(taskID, workerID int, labels []int) (outcome SubmitOutcome, records int, err error) {
	s.mu.Lock()
	outcome, records, evs, err := s.acceptAnswerLocked(taskID, workerID, labels)
	sink := s.labelSink
	s.mu.Unlock()
	if sink != nil {
		for _, ev := range evs {
			if ev.Kind != 0 {
				sink(ev)
			}
		}
	}
	return outcome, records, err
}

// acceptAnswerLocked is AcceptAnswer's body. It additionally assembles the
// label events the caller emits after releasing mu (a zero-kind event means
// nothing to emit); events are only built when a sink is attached, so plain
// deployments pay nothing for the stream.
//
//clamshell:locked callers hold mu
func (s *Shard) acceptAnswerLocked(taskID, workerID int, labels []int) (outcome SubmitOutcome, records int, evs [2]LabelEvent, err error) {
	u, ok := s.tasks[taskID]
	if !ok {
		return SubmitUnknownTask, 0, evs, errors.New("unknown task")
	}
	if len(labels) != len(u.spec.Records) {
		//clamshell:hotpath-ok cold validation branch; well-behaved clients never take it
		return SubmitBadLabels, 0, evs, fmt.Errorf("want %d labels, got %d", len(u.spec.Records), len(labels))
	}
	for _, l := range labels {
		if l < 0 || l >= u.spec.Classes {
			//clamshell:hotpath-ok cold validation branch; well-behaved clients never take it
			return SubmitBadLabels, 0, evs, fmt.Errorf("label %d out of range", l)
		}
	}
	records = len(u.spec.Records)
	if s.answered(u, workerID) {
		return SubmitDuplicate, records, evs, nil
	}
	if u.done && u.termAcked[workerID] {
		return SubmitDuplicateTerminated, records, evs, nil
	}
	delete(u.active, workerID)
	if u.done {
		s.terminated++
		pay := s.payWork(records, true)
		s.logOp(journal.Op{T: journal.OpAnswer, Task: u.id, Worker: workerID,
			Terminated: true, Pay: int64(pay)})
		if u.termAcked == nil {
			//clamshell:hotpath-ok allocated once per terminated task, only on the straggler branch
			u.termAcked = make(map[int]bool)
		}
		u.termAcked[workerID] = true
		return SubmitTerminated, records, evs, nil
	}
	pay := s.payWork(records, false)
	u.answers = append(u.answers, labels)
	u.voters = append(u.voters, workerID)
	now := s.cfg.Now()
	if len(u.answers) >= u.spec.Quorum {
		u.done = true
		u.doneAt = now
	}
	s.logOp(journal.Op{T: journal.OpAnswer, Task: u.id, Worker: workerID,
		Labels: labels, Pay: int64(pay), At: now.UnixNano()})
	s.reindex(u)
	if s.labelSink != nil {
		evs[0] = LabelEvent{Kind: LabelAnswered, Task: u.id, Labels: labels,
			Records: records, Answers: len(u.answers)}
		if u.done {
			evs[1] = s.finalizedEvent(u)
		}
	}
	return SubmitAccepted, records, evs, nil
}

// AutoFinalize terminates a pending task with a model-provided answer: the
// hybrid plane's confident-decision path. The task completes immediately —
// in-flight human assignments settle as terminated stragglers exactly as
// if a quorum had filled — and the decision is journaled as its own op
// type, so crash recovery replays it byte-exactly without re-running any
// model. Human answers already on the books stay (they keep feeding the
// quality estimators); the served consensus becomes the model's answer,
// with provenance on /api/result and /api/consensus. It reports false when
// the task is unknown, already complete, or labels do not fit the spec.
func (s *Shard) AutoFinalize(taskID int, labels []int) bool {
	s.mu.Lock()
	u, ok := s.tasks[taskID]
	if !ok || u.done || len(labels) != len(u.spec.Records) {
		s.mu.Unlock()
		return false
	}
	for _, l := range labels {
		if l < 0 || l >= u.spec.Classes {
			s.mu.Unlock()
			return false
		}
	}
	now := s.cfg.Now()
	u.done = true
	u.model = true
	u.modelLabels = labels
	u.doneAt = now
	s.autoFinalized++
	s.logOp(journal.Op{T: journal.OpAutoFinal, Task: u.id, Labels: labels, At: now.UnixNano()})
	s.reindex(u)
	var ev LabelEvent
	sink := s.labelSink
	if sink != nil {
		ev = s.finalizedEvent(u)
	}
	s.mu.Unlock()
	if sink != nil {
		sink(ev)
	}
	return true
}

// Reprioritize moves a pending task to a new dispatch priority: the hybrid
// plane's uncertainty re-bucketing path. The move is journaled so a
// recovered shard rebuilds the same hand-out order. It reports false when
// the task is unknown, complete, or already at the given priority.
func (s *Shard) Reprioritize(taskID, priority int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.tasks[taskID]
	if !ok || u.done || u.spec.Priority == priority {
		return false
	}
	s.repriLocked(u, priority)
	s.logOp(journal.Op{T: journal.OpRepri, Task: u.id, Priority: priority})
	return true
}

// repriLocked re-buckets a unit to a new priority. The dispatch partitions
// key their buckets by the unit's current priority, so the unit must leave
// its bucket before the spec changes and rejoin after. Callers hold mu.
//
//clamshell:locked callers hold mu
func (s *Shard) repriLocked(u *workUnit, priority int) {
	if u.dstate != dispatchNone {
		s.dispatch[u.dstate-1].remove(u)
	}
	u.spec.Priority = priority
	if u.dstate != dispatchNone {
		s.dispatch[u.dstate-1].push(u)
	}
}

// FinishAssignment applies the worker-side half of an answer submission on
// the worker's home shard: clears the in-flight assignment, records the
// latency observation, refreshes liveness and runs pool maintenance (or
// restarts the paid-wait span).
func (s *Shard) FinishAssignment(workerID, taskID, records int) {
	s.mu.Lock()
	pw, ok := s.workers[workerID]
	if !ok {
		s.mu.Unlock()
		return
	}
	var perRec float64
	hasLat := false
	if pw.current == taskID {
		pw.current = 0
		if !pw.fetchedAt.IsZero() {
			perRec = s.observeLatency(pw, records, s.cfg.Now().Sub(pw.fetchedAt))
			hasLat = true
		}
	}
	pw.done++
	pw.lastSeen = s.cfg.Now()
	if !s.maintenanceCheck(pw) {
		s.startWait(pw)
	}
	s.mu.Unlock()
	if hasLat {
		s.latRec.Record(perRec)
	}
}

// Counters is one shard's contribution to GET /api/status.
type Counters struct {
	Tasks         int
	Complete      int
	Workers       int
	Idle          int
	Terminated    int
	Retired       int
	Expired       int
	TalliesAged   int
	AutoFinalized int
}

// CountersNow expires stale workers and reports the shard's health
// counters.
func (s *Shard) CountersNow() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireWorkers()
	return s.countersLocked()
}

// countersLocked reports the shard's health counters. Callers hold mu.
func (s *Shard) countersLocked() Counters {
	// Retained tallies count as complete tasks: retention compaction
	// shrinks a task's representation, it does not forget the task.
	c := Counters{
		Tasks:         len(s.tasks) + len(s.tallies),
		Complete:      len(s.tallies),
		Workers:       len(s.workers),
		Terminated:    s.terminated,
		Retired:       s.retiredCount,
		Expired:       s.expired,
		TalliesAged:   s.talliesAged,
		AutoFinalized: s.autoFinalized,
	}
	for _, u := range s.tasks {
		if u.done {
			c.Complete++
		}
	}
	for _, pw := range s.workers {
		if pw.current == 0 {
			c.Idle++
		}
	}
	return c
}

// WorkerList expires stale workers and reports per-worker statistics
// (unsorted; the fabric merges and sorts across shards).
func (s *Shard) WorkerList() []WorkerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireWorkers()
	now := s.cfg.Now()
	out := make([]WorkerStats, 0, len(s.workers))
	for _, pw := range s.workers {
		ws := WorkerStats{
			ID:          pw.id,
			Name:        pw.name,
			Completed:   pw.done,
			Working:     pw.current != 0,
			JoinedAgoMS: now.Sub(pw.joinedAt).Milliseconds(),
		}
		if pw.latN > 0 {
			ws.MeanPerRec = pw.latSum / float64(pw.latN)
		}
		out = append(out, ws)
	}
	return out
}

// AccruedCosts returns the accounting including wait pay accrued up to now
// for currently idle workers — the /api/costs view. Stale workers are
// expired first (with their wait pay clipped at the moment liveness
// lapsed), so workers that stopped heartbeating long ago do not keep
// billing. The caller must drain orphans afterwards (expiry can strand
// stolen assignments).
func (s *Shard) AccruedCosts() metrics.Accounting {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireWorkers()
	acct := s.costs
	now := s.cfg.Now()
	for _, pw := range s.workers {
		if !pw.waitStart.IsZero() && now.After(pw.waitStart) {
			acct.WaitPay += metrics.PerMinute(s.cfg.Costs.WaitPayPerMin, now.Sub(pw.waitStart))
		}
	}
	return acct
}

// ResultStatus reports a task's progress and, when complete, its
// per-record majority consensus.
func (s *Shard) ResultStatus(taskID int) (TaskStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.tasks[taskID]
	if !ok {
		if t, ok := s.tallies[taskID]; ok {
			return retainedStatus(t), true
		}
		return TaskStatus{}, false
	}
	st := TaskStatus{
		ID:      u.id,
		Answers: len(u.answers),
		Active:  len(u.active),
		Records: u.spec.Records,
	}
	switch {
	case u.done && u.model:
		st.State = "complete"
		st.Consensus = u.modelLabels
		st.Source = "model"
	case u.done:
		st.State = "complete"
		st.Consensus = s.majority(u)
	case len(u.active) > 0:
		st.State = "active"
	default:
		st.State = "unassigned"
	}
	return st, true
}

// Dims reports the shard's vote-graph dimensions: the widest task (record
// count), the largest class count, and the task id counter — the fabric
// takes maxima across shards to build one globally consistent graph.
func (s *Shard) Dims() (maxRecords, maxClasses, lastTask int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	maxRecords, maxClasses = 1, 2
	for _, u := range s.tasks {
		if len(u.spec.Records) > maxRecords {
			maxRecords = len(u.spec.Records)
		}
		if u.spec.Classes > maxClasses {
			maxClasses = u.spec.Classes
		}
	}
	for _, t := range s.tallies {
		if t.Records > maxRecords {
			maxRecords = t.Records
		}
		if t.Classes > maxClasses {
			maxClasses = t.Classes
		}
	}
	return maxRecords, maxClasses, s.nextTask
}

// ModelTasks returns the ids (ascending) of this shard's tasks finalized
// by the hybrid plane's model rather than a human quorum — live tasks and
// retained tallies alike. They carry no votes, so the consensus surface
// lists them separately instead of running estimators over them.
func (s *Shard) ModelTasks() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for id, u := range s.tasks {
		if u.model {
			out = append(out, id)
		}
	}
	for id, t := range s.tallies {
		if t.Model {
			out = append(out, id)
		}
	}
	sort.Ints(out)
	return out
}

// Votes flattens every answer on this shard — live tasks and retained
// tallies alike — into per-record votes using the given global stride
// (record rec of task tid becomes item tid*stride+rec). This is exactly
// why demotion keeps the tally rows: consensus estimators keep judging
// worker reliability on full history after the payloads are gone.
func (s *Shard) Votes(stride int) []quality.Vote {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flattenVotes(stride)
}

// flattenVotes walks the submission order — live tasks and retained
// tallies alike — turning every answer into per-record votes under the
// given stride. Callers hold mu.
func (s *Shard) flattenVotes(stride int) []quality.Vote {
	var votes []quality.Vote
	appendVotes := func(tid int, answers [][]int, voters []int) {
		for i, ans := range answers {
			voter := voters[i]
			for rec, label := range ans {
				votes = append(votes, quality.Vote{
					Item:   tid*stride + rec,
					Worker: worker.ID(voter),
					Label:  label,
				})
			}
		}
	}
	for _, tid := range s.order {
		if u, ok := s.tasks[tid]; ok {
			appendVotes(tid, u.answers, u.voters)
		} else if t, ok := s.tallies[tid]; ok {
			appendVotes(tid, t.Answers, t.Voters)
		}
	}
	return votes
}

// TaskMeta reports the shard's task ids in submission order and each
// task's record count (for assembling cross-shard consensus responses).
func (s *Shard) TaskMeta() (order []int, records map[int]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	order = append([]int(nil), s.order...)
	records = make(map[int]int, len(s.tasks)+len(s.tallies))
	for id, u := range s.tasks {
		records[id] = len(u.spec.Records)
	}
	for id, t := range s.tallies {
		records[id] = t.Records
	}
	return order, records
}

// Obs returns the shard's transport observation plane. The HTTP shim and
// wire transport sniff this off any Core to record per-op service times.
func (s *Shard) Obs() *Obs { return s.obs }

// RecordLatencySample feeds one per-record latency observation directly
// into the shard's sketch — the injection point for tests that prove
// merged fabric-wide quantiles against exact sample quantiles.
func (s *Shard) RecordLatencySample(seconds float64) { s.latRec.Record(seconds) }

// MetricsState snapshots this shard's contribution to a metrics page:
// health counters, settled cost, latency sketches and backlog depths. The
// fabric merges these across shards into one page.
func (s *Shard) MetricsState() ShardMetrics {
	s.mu.Lock()
	s.expireWorkers()
	c := s.countersLocked()
	cost := s.costs.Total().Dollars()
	backlog := s.backlogLocked()
	s.mu.Unlock()
	return ShardMetrics{
		Counters:    c,
		CostDollars: cost,
		PerRecord:   s.latRec.Snapshot(),
		Handout:     s.handoutRec.Snapshot(),
		Backlog:     backlog,
	}
}

// backlogLocked reports pending tasks per priority bucket across both
// dispatch partitions (starved + speculative). Callers hold mu.
func (s *Shard) backlogLocked() []BacklogDepth {
	depth := map[int]int{}
	for p := range s.dispatch {
		for prio, b := range s.dispatch[p].buckets {
			if len(b.h) > 0 {
				depth[prio] += len(b.h)
			}
		}
	}
	out := make([]BacklogDepth, 0, len(depth))
	for prio, d := range depth {
		out = append(out, BacklogDepth{Priority: prio, Depth: d})
	}
	return out
}
