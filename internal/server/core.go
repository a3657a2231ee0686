package server

import "errors"

// The transport-agnostic core of the retainer-pool protocol. Every
// transport — the JSON/HTTP facade in httpapi.go, the binary wire protocol
// in internal/wire — is a thin shim over this interface: typed request
// values in, typed results out, no http.Request (or net.Conn) below the
// shim. A bare Shard implements it directly under one lock per op (the
// wire and replication tests serve one); internal/fabric implements it by
// routing across shards. Keeping both behind one API is what lets every
// transport stay protocol-identical by construction.
type Core interface {
	// CoreJoin admits a worker and returns its globally-unique id.
	CoreJoin(name string) int
	// CoreHeartbeat refreshes a worker's liveness; false = unknown worker.
	CoreHeartbeat(workerID int) bool
	// CoreLeave removes a worker; unknown ids are a no-op.
	CoreLeave(workerID int)
	// CoreEnqueue admits a batch of task specs and returns their ids in
	// request order. A nil error means every spec was admitted; on error
	// (empty batch, spec with no records) specs before the offending one
	// are already enqueued — exactly the historical HTTP behavior.
	CoreEnqueue(specs []TaskSpec) ([]int, error)
	// CoreFetch hands the polling worker its next assignment (or
	// re-delivers the in-flight one).
	CoreFetch(workerID int) (Assignment, FetchDisposition)
	// CoreSubmit ingests a completed assignment. A nil *CoreError means the
	// submission was acknowledged (accepted, or terminated-but-paid).
	CoreSubmit(workerID, taskID int, labels []int) (SubmitReply, *CoreError)
	// CoreResult reports a task's status and, when complete, its consensus.
	CoreResult(taskID int) (TaskStatus, bool)
}

// FetchDisposition classifies a fetch outcome for the transport shims.
type FetchDisposition int

const (
	// FetchAssigned: the returned Assignment is work (HTTP 200).
	FetchAssigned FetchDisposition = iota
	// FetchNoWork: nothing to hand out, keep waiting (HTTP 204).
	FetchNoWork
	// FetchGoneRetired: the worker was retired by maintenance (HTTP 410).
	FetchGoneRetired
	// FetchNoWorker: the worker is not in the pool (HTTP 404).
	FetchNoWorker
	// FetchUnavailable: the worker's shard lives on a node the router
	// cannot reach right now (HTTP 503); retry with backoff.
	FetchUnavailable
)

// SubmitReply is the acknowledged half of a submission outcome.
type SubmitReply struct {
	Accepted   bool
	Terminated bool
}

// CoreError is a transport-agnostic request failure: NotFound selects the
// protocol's not-found status (HTTP 404), otherwise bad-request (HTTP 400).
type CoreError struct {
	NotFound bool
	Err      error
}

func (e *CoreError) Error() string { return e.Err.Error() }

// Canonical protocol errors. The exact strings are part of the protocol
// surface (both transports and both Core implementations share them).
var (
	ErrUnknownWorker   = errors.New("unknown worker")
	ErrUnknownTask     = errors.New("unknown task")
	ErrNoMoreTasks     = errors.New("no more tasks available")
	ErrNoTasksGiven    = errors.New("no tasks given")
	ErrTaskNoRecords   = errors.New("task with no records")
	ErrTaskBadFeatures = errors.New("task features do not match records")
	// ErrUnavailable reports that the shard or node owning the entity is
	// unreachable (a remote node down, its circuit open). The op did not
	// run; callers retry with backoff.
	ErrUnavailable = errors.New("shard unavailable")
)

// --- single-shard Core implementation ---
//
// A bare Shard is its own router: every op runs under the shard's one
// lock, monolithically, where the fabric composes the same internals
// across shards as separate lock acquisitions.

// CoreJoin implements Core.
//
//clamshell:hotpath
func (s *Shard) CoreJoin(name string) int { return s.join(name) }

// CoreHeartbeat implements Core.
//
//clamshell:hotpath
func (s *Shard) CoreHeartbeat(workerID int) bool { return s.Heartbeat(workerID) }

// CoreLeave implements Core.
//
//clamshell:hotpath
func (s *Shard) CoreLeave(workerID int) { s.Leave(workerID) }

// CoreEnqueue implements Core.
//
//clamshell:hotpath
func (s *Shard) CoreEnqueue(specs []TaskSpec) ([]int, error) {
	if len(specs) == 0 {
		return nil, ErrNoTasksGiven
	}
	s.mu.Lock()
	ids := make([]int, 0, len(specs))
	var evs []LabelEvent
	sink := s.labelSink
	for _, spec := range specs {
		if err := ValidateSpec(spec); err != nil {
			s.mu.Unlock()
			s.emitAll(sink, evs)
			return nil, err
		}
		id := s.enqueueLocked(spec)
		ids = append(ids, id)
		if sink != nil {
			if ev := enqueuedEvent(s.tasks[id]); ev.Kind != 0 {
				evs = append(evs, ev)
			}
		}
	}
	s.mu.Unlock()
	s.emitAll(sink, evs)
	return ids, nil
}

// ValidateSpec applies the Core-level spec checks shared by both Core
// implementations: a task must carry records, and features (when present)
// must carry one vector per record.
//
//clamshell:hotpath
func ValidateSpec(spec TaskSpec) error {
	if len(spec.Records) == 0 {
		return ErrTaskNoRecords
	}
	if len(spec.Features) != 0 && len(spec.Features) != len(spec.Records) {
		return ErrTaskBadFeatures
	}
	return nil
}

// emitAll delivers collected label events to a sink. Callers must have
// released mu; a nil sink (the common case) costs one branch.
//
//clamshell:hotpath
func (s *Shard) emitAll(sink func(LabelEvent), evs []LabelEvent) {
	if sink == nil {
		return
	}
	for _, ev := range evs {
		sink(ev)
	}
}

// CoreFetch implements Core: first a task still needing primary answers,
// then a speculative duplicate (straggler mitigation).
//
//clamshell:hotpath
func (s *Shard) CoreFetch(workerID int) (Assignment, FetchDisposition) {
	s.mu.Lock()
	s.expireWorkers()
	if s.retired[workerID] {
		s.mu.Unlock()
		return Assignment{}, FetchGoneRetired
	}
	pw, ok := s.workers[workerID]
	if !ok {
		s.mu.Unlock()
		return Assignment{}, FetchNoWorker
	}
	pw.lastSeen = s.cfg.Now()
	if pw.current != 0 {
		if u, ok := s.tasks[pw.current]; ok {
			// Re-deliver the in-flight assignment (lost response tolerance).
			a := s.assignmentOf(u)
			s.mu.Unlock()
			return a, FetchAssigned
		}
		// The assignment's payload is gone (the task was restored away).
		// Clear it and fall through to a fresh pick rather than wedging the
		// worker on empty responses forever.
		pw.current = 0
		s.startWait(pw)
	}
	u := s.pick(workerID)
	if u == nil {
		s.mu.Unlock()
		return Assignment{}, FetchNoWork
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
	return a, FetchAssigned
}

// CoreSubmit implements Core, composing the same exported halves the fabric
// router uses — AcceptAnswer (task side) then FinishAssignment (worker
// side) — so the bare-shard path cannot drift from the fabric-routed one
// (pay, journaling, replay idempotency).
//
//clamshell:hotpath
func (s *Shard) CoreSubmit(workerID, taskID int, labels []int) (SubmitReply, *CoreError) {
	if !s.WorkerKnown(workerID) {
		return SubmitReply{}, &CoreError{NotFound: true, Err: ErrUnknownWorker}
	}
	outcome, records, err := s.AcceptAnswer(taskID, workerID, labels)
	switch outcome {
	case SubmitUnknownTask:
		return SubmitReply{}, &CoreError{NotFound: true, Err: err}
	case SubmitBadLabels:
		return SubmitReply{}, &CoreError{Err: err}
	case SubmitDuplicate:
		// A replayed submission (client retry after a lost response): the
		// answer is already on the books. Re-acknowledge without paying
		// again or double-counting the worker's completion stats.
		return SubmitReply{Accepted: true}, nil
	case SubmitDuplicateTerminated:
		// Same, for a replayed straggler submission that already lost the
		// race: the original termination was acknowledged and paid once.
		return SubmitReply{Terminated: true}, nil
	case SubmitTerminated:
		// A straggler losing the race: acknowledged, paid, discarded.
		s.FinishAssignment(workerID, taskID, records)
		return SubmitReply{Terminated: true}, nil
	default: // SubmitAccepted
		s.FinishAssignment(workerID, taskID, records)
		return SubmitReply{Accepted: true}, nil
	}
}

// CoreResult implements Core.
//
//clamshell:hotpath
func (s *Shard) CoreResult(taskID int) (TaskStatus, bool) { return s.ResultStatus(taskID) }
