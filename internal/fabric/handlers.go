package fabric

import (
	"github.com/clamshell/clamshell/internal/server"
)

// The fabric's server.Core implementation: the transport-agnostic routing
// layer behind both the JSON/HTTP shim (server.RegisterCoreRoutes) and the
// binary wire transport (internal/wire). Each op routes by the id→shard
// mapping and composes exported Shard operations; error precedence and
// outcomes match the bare-shard Core exactly (the golden compat transcript
// pins the HTTP surface byte-for-byte).

// CoreJoin pins the worker to a home shard and admits it. Placement is
// power-of-two-choices on current pool size: the round-robin candidate is
// compared against one pseudo-randomly probed shard and the smaller pool
// wins (ties go to the round-robin pick, so a balanced fabric degrades to
// the historical deterministic rotation). Under sustained asymmetric churn
// this steers joins toward drained shards instead of letting pool sizes
// skew (see balance_test.go).
//
//clamshell:hotpath
func (f *Fabric) CoreJoin(name string) int {
	return f.homeShard().Join(name)
}

// CoreHeartbeat keeps a waiting worker alive on its home shard.
//
//clamshell:hotpath
func (f *Fabric) CoreHeartbeat(workerID int) bool {
	sh := f.shardOf(workerID)
	return sh != nil && sh.Heartbeat(workerID)
}

// CoreLeave removes a worker; a local assignment returns to the queue
// directly and a stolen one is released on the task's shard.
//
//clamshell:hotpath
func (f *Fabric) CoreLeave(workerID int) {
	if sh := f.shardOf(workerID); sh != nil {
		sh.Leave(workerID)
		f.release(sh)
	}
}

// CoreEnqueue places each task on a shard by consistent-hashing its
// records; ids are returned in request order.
//
//clamshell:hotpath
func (f *Fabric) CoreEnqueue(specs []server.TaskSpec) ([]int, error) {
	if len(specs) == 0 {
		return nil, server.ErrNoTasksGiven
	}
	ids := make([]int, 0, len(specs))
	for _, spec := range specs {
		if err := server.ValidateSpec(spec); err != nil {
			return nil, err
		}
		ids = append(ids, f.placeShard(spec).Enqueue(spec))
	}
	return ids, nil
}

// CoreFetch hands the next task to a polling worker: the home shard's own
// queue first, then — stealing across the fabric — starved tasks on any
// shard before speculative duplicates on any shard. FetchNoWork means
// "keep waiting".
//
//clamshell:hotpath
func (f *Fabric) CoreFetch(workerID int) (server.Assignment, server.FetchDisposition) {
	home := f.shardOf(workerID)
	if home == nil {
		return server.Assignment{}, server.FetchNoWorker
	}
	current, st := home.BeginFetch(workerID)
	f.release(home)
	switch st {
	case server.FetchRetired:
		return server.Assignment{}, server.FetchGoneRetired
	case server.FetchUnknown:
		return server.Assignment{}, server.FetchNoWorker
	case server.FetchCurrent:
		// Re-deliver the in-flight assignment (lost response tolerance) —
		// possibly from another shard if it was stolen.
		if owner := f.shardOf(current); owner != nil {
			if payload, ok := owner.TaskPayload(current); ok {
				return payload, server.FetchAssigned
			}
		}
		// The stolen task's payload is gone (e.g. the owning shard was
		// restored away from under the assignment). Answering "no work"
		// while the assignment stands would wedge the worker into empty
		// polls forever: clear the dangling assignment and fall through to a
		// fresh pick.
		home.ClearAssignment(workerID, current)
	}

	// Starved work anywhere in the fabric beats speculation anywhere:
	// local starved, stolen starved, then (local first) speculative.
	for _, starvedOnly := range []bool{true, false} {
		if payload, ok := home.PickLocal(workerID, starvedOnly); ok {
			return payload, server.FetchAssigned
		}
		if payload, ok := f.steal(home, workerID, starvedOnly); ok {
			return payload, server.FetchAssigned
		}
	}
	return server.Assignment{}, server.FetchNoWork
}

// steal runs one ring pass over the other shards for an idle worker homed
// on home. A successful pick is recorded on the home shard; if the worker
// vanished or got work concurrently, the steal rolls back.
func (f *Fabric) steal(home *server.Shard, workerID int, starvedOnly bool) (server.Assignment, bool) {
	n := len(f.shards)
	if n == 1 {
		return server.Assignment{}, false
	}
	homeIdx := f.localIndex(workerID) // the same stripe rule shardOf uses
	for off := 1; off < n; off++ {
		sh := f.shards[(homeIdx+off)%n]
		tid, payload, ok := sh.PickSteal(workerID, starvedOnly)
		if !ok {
			continue
		}
		if home.AssignStolen(workerID, tid) {
			f.obs.Steals.Add(1)
			return payload, true
		}
		sh.ReleaseActive(tid, workerID)
		return server.Assignment{}, false
	}
	return server.Assignment{}, false
}

// CoreSubmit ingests a completed assignment: the task-side half on the
// task's shard (validation, termination race, pay, quorum), then the
// worker-side half on the worker's home shard (latency, maintenance,
// restart of the paid-wait span).
//
//clamshell:hotpath
func (f *Fabric) CoreSubmit(workerID, taskID int, labels []int) (server.SubmitReply, *server.CoreError) {
	home := f.shardOf(workerID)
	if home == nil || !home.WorkerKnown(workerID) {
		return server.SubmitReply{}, &server.CoreError{NotFound: true, Err: server.ErrUnknownWorker}
	}
	owner := f.shardOf(taskID)
	if owner == nil {
		return server.SubmitReply{}, &server.CoreError{NotFound: true, Err: server.ErrUnknownTask}
	}
	outcome, records, err := owner.AcceptAnswer(taskID, workerID, labels)
	switch outcome {
	case server.SubmitUnknownTask:
		return server.SubmitReply{}, &server.CoreError{NotFound: true, Err: err}
	case server.SubmitBadLabels:
		return server.SubmitReply{}, &server.CoreError{Err: err}
	case server.SubmitDuplicate:
		// A replayed submission (client retry after a lost response): the
		// answer is already on the books. Re-acknowledge without paying
		// again or double-counting the worker's completion stats.
		return server.SubmitReply{Accepted: true}, nil
	case server.SubmitDuplicateTerminated:
		// Same, for a replayed straggler submission that already lost the
		// race: the original termination was acknowledged and paid once.
		return server.SubmitReply{Terminated: true}, nil
	case server.SubmitTerminated:
		// A straggler losing the race: acknowledged, paid, discarded.
		home.FinishAssignment(workerID, taskID, records)
		f.release(home) // maintenance may have retired the worker mid-steal
		return server.SubmitReply{Terminated: true}, nil
	default: // server.SubmitAccepted
		home.FinishAssignment(workerID, taskID, records)
		f.release(home)
		return server.SubmitReply{Accepted: true}, nil
	}
}

// CoreResult returns a task's status from its owning shard.
//
//clamshell:hotpath
func (f *Fabric) CoreResult(taskID int) (server.TaskStatus, bool) {
	owner := f.shardOf(taskID)
	if owner == nil {
		return server.TaskStatus{}, false
	}
	return owner.ResultStatus(taskID)
}
