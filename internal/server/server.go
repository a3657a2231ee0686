// Package server holds the retainer-pool protocol's building blocks: the
// independently-locked Shard (tasks, queue order, workers, consensus
// inputs, accounting, maintenance, durability), the transport-agnostic
// Core interface, the JSON/HTTP shim over it, the metrics renderer and the
// HTTP client. Workers (or worker UIs) join the pool, poll for work, and
// submit labels; clients enqueue tasks and collect consensus results. A
// shard applies the same straggler-mitigation semantics as the simulator —
// when every task is assigned, idle workers receive speculative duplicates
// of in-flight tasks, the first answer wins, and late duplicates are told
// their work was redundant (but still counted for payment).
//
// internal/fabric assembles shards into the node's one HTTP server (a
// 1-shard fabric is the single-pool deployment). The protocol is
// deliberately plain JSON over HTTP so any crowd frontend (an MTurk
// ExternalQuestion iframe, an internal labeling UI) can drive it.
package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/metrics"
	"github.com/clamshell/clamshell/internal/sketch"
)

// TaskSpec is a labeling task submitted by a client.
type TaskSpec struct {
	Records []string `json:"records"` // payloads to label (text, image URLs, ...)
	Classes int      `json:"classes"` // number of label classes
	Quorum  int      `json:"quorum"`  // answers required (default 1)

	// Priority orders the queue: higher-priority tasks are handed out
	// first (FIFO within a priority). A live-mode Batcher submits its
	// uncertainty-sampled points at high priority and passive fill at
	// priority 0, reproducing the hybrid selector's ordering on a real
	// crowd.
	Priority int `json:"priority,omitempty"`

	// Features, when present, carries one numeric feature vector per
	// record. A feature-carrying task is visible to the hybrid learning
	// plane (internal/hybrid): its finalized labels train the model, and a
	// confident model may auto-finalize it or re-bucket its priority.
	// Tasks without features flow through the pool untouched.
	Features [][]float64 `json:"features,omitempty"`
}

// TaskStatus reports a task's progress.
type TaskStatus struct {
	ID        int      `json:"id"`
	State     string   `json:"state"` // unassigned | active | complete
	Answers   int      `json:"answers"`
	Active    int      `json:"active"`
	Consensus []int    `json:"consensus,omitempty"` // majority labels when complete
	Records   []string `json:"records,omitempty"`

	// Source is "model" when the consensus came from a hybrid-plane
	// auto-finalize decision rather than a human quorum; empty otherwise.
	Source string `json:"source,omitempty"`
}

// workUnit is the server's internal task state.
type workUnit struct {
	id         int
	seq        int // submission sequence on this shard (FIFO dispatch order)
	spec       TaskSpec
	answers    [][]int      // one label vector per completed assignment
	voters     []int        // worker id per answer
	active     map[int]bool // worker ids currently assigned
	done       bool
	doneAt     time.Time    // when the quorum filled (drives retention demotion)
	enqueuedAt int64        // UnixNano when the task entered the queue (hand-out wait metric; zero after replay)
	termAcked  map[int]bool // workers whose terminated submission was acknowledged (replay dedup)

	// Model provenance: a task the hybrid plane auto-finalized carries the
	// model's answer here; human answers gathered before the decision stay
	// in answers/voters (and keep feeding the quality estimators), but the
	// served consensus is modelLabels.
	model       bool
	modelLabels []int

	// Dispatch-index bookkeeping (see dispatch.go): the partition the task
	// currently belongs to and its position in that partition's heap.
	dstate  dispatchState
	heapPos int
}

func (u *workUnit) needed() int {
	n := u.spec.Quorum - len(u.answers)
	if n < 0 {
		return 0
	}
	return n
}

// poolWorker is a joined retainer worker.
type poolWorker struct {
	id        int
	name      string
	joinedAt  time.Time
	lastSeen  time.Time
	current   int       // assigned task id, 0 if idle
	fetchedAt time.Time // when the current assignment was handed out
	done      int       // completed assignments
	latN      int       // completed latency observations
	latSum    float64   // sum of per-record latencies (seconds)
	retired   bool      // removed by server-side maintenance
	waitStart time.Time // start of the current idle (paid-to-wait) span
}

// Config parameterizes the server.
type Config struct {
	// SpeculationLimit caps speculative duplicates per outstanding answer
	// (0 = 1, the decoupled default).
	SpeculationLimit int

	// WorkerTimeout expires workers that stop heartbeating; their in-flight
	// assignments return to the queue. Default 2 minutes.
	WorkerTimeout time.Duration

	// MaintenanceThreshold, when positive, enables server-side pool
	// maintenance: workers whose mean per-record latency exceeds the
	// threshold (after MaintenanceMinObs completed assignments) are retired
	// from the pool. Zero disables maintenance.
	MaintenanceThreshold time.Duration

	// MaintenanceMinObs is the minimum completed assignments before a
	// worker can be retired. Default 3.
	MaintenanceMinObs int

	// Now overrides the clock (tests). Defaults to time.Now.
	Now func() time.Time

	// Costs sets pay rates for the live accounting endpoint.
	Costs CostConfig

	// TallyHorizon, when positive, ages retained vote tallies that
	// completed more than this long ago into count-only aggregates
	// (consensus labels and answer count kept, per-voter vectors dropped)
	// during retention compaction, bounding retained-log growth. Zero
	// keeps full tallies forever.
	TallyHorizon time.Duration
}

// Shard is one independently-locked retainer pool: tasks, queue order,
// workers, consensus inputs, accounting and maintenance state. The fabric
// package runs N of them behind one router, each covering a stripe of the
// global id space (shard s of n allocates ids ≡ s+1 mod n), so an id
// deterministically names its owning shard.
type Shard struct {
	cfg Config

	// index/count describe this shard's id stripe. A 1-shard fabric's
	// shard is 0 of 1 — the stripe is all of ℕ and ids are 1,2,3,… exactly
	// as before sharding existed.
	index int
	count int

	mu            sync.Mutex
	tasks         map[int]*workUnit
	tallies       map[int]*RetainedTask // completed tasks demoted to vote tallies (see journal.go)
	talliesDirty  map[int]*RetainedTask // tallies not yet durable in a store's retained log
	order         []int                 // task ids (live and retained) in submission order (consensus, snapshots)
	nextSeq       int                   // submission sequence counter (dispatch FIFO order)
	dispatch      [2]dispatchPart       // indexed pending queues: [starved, speculative]
	workers       map[int]*poolWorker
	nextTask      int
	nextWorker    int
	terminated    int          // duplicate answers discarded (stragglers that lost)
	retired       map[int]bool // workers retired by server-side maintenance
	retiredCount  int
	expired       int // workers expired for missing heartbeats
	talliesAged   int // tallies aged into count-only aggregates
	autoFinalized int // tasks finalized by the hybrid plane's model
	costs         metricsAccounting
	startedAt     time.Time

	// agePending holds retained tallies not yet past the aging horizon, in
	// demotion order, so the compaction-time aging pass scans only the
	// recent window instead of every tally ever retained.
	agePending []*RetainedTask

	// latRec/handoutRec are the shard's latency sketches (per-record
	// round-trip, dispatch-index hand-out wait). Observations are computed
	// under mu but recorded after it is released — the recorder has its own
	// striped locks and must stay off the routing hot path's critical
	// section. obs carries the transport-level sketches (per-op service
	// time) shared by the HTTP shim and the wire protocol.
	latRec     *sketch.Recorder
	handoutRec *sketch.Recorder
	obs        *Obs

	// logf, when set, journals one op per durable mutation (write-through;
	// see AttachJournal). Called with mu held, so ops land in the shard's
	// serialization order.
	logf func(journal.Op)

	// labelSink, when set, receives the shard's label-event stream (see
	// events.go). Read under mu; invoked only after mu is released.
	labelSink func(LabelEvent)

	// orphans are assignments whose worker was removed while holding a task
	// that lives on another shard (work stealing). The fabric drains them
	// and releases the active slots on the owning shards; a 1-shard
	// fabric never produces any (every assignment is local). orphanCount
	// mirrors len(orphans) so DrainOrphans can skip the lock when empty.
	orphans     []Orphan
	orphanCount atomic.Int32

	// poolSize mirrors len(workers) so the fabric's join-time
	// power-of-two-choices placement can compare pool sizes without taking
	// shard locks.
	poolSize atomic.Int32

	// nextExpiry is a lower bound on the earliest instant any worker can
	// expire: min(lastSeen) + WorkerTimeout as of the last full expiry
	// scan. lastSeen only moves forward and joins start at now, so until
	// this instant an expiry scan cannot find anything — expireWorkers
	// returns in O(1) instead of walking every worker on every poll (the
	// scan was the routing hot path's dominant cost on large pools).
	nextExpiry time.Time
}

// Orphan is a cross-shard assignment left dangling by a removed worker.
type Orphan struct {
	Worker int
	Task   int
}

// metricsAccounting aliases metrics.Accounting for field brevity.
type metricsAccounting = accountingT

func normalize(cfg Config) Config {
	if cfg.SpeculationLimit <= 0 {
		cfg.SpeculationLimit = 1
	}
	if cfg.WorkerTimeout == 0 {
		cfg.WorkerTimeout = 2 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaintenanceMinObs == 0 {
		cfg.MaintenanceMinObs = 3
	}
	cfg.Costs.fillDefaults()
	return cfg
}

func initShard(sh *Shard, cfg Config, index, count int) {
	cfg = normalize(cfg)
	sh.cfg = cfg
	sh.index = index
	sh.count = count
	sh.tasks = make(map[int]*workUnit)
	sh.tallies = make(map[int]*RetainedTask)
	sh.talliesDirty = make(map[int]*RetainedTask)
	sh.workers = make(map[int]*poolWorker)
	sh.retired = make(map[int]bool)
	sh.startedAt = cfg.Now()
	sh.latRec = sketch.NewRecorder(sketch.DefaultCompression)
	sh.handoutRec = sketch.NewRecorder(sketch.DefaultCompression)
	sh.obs = NewObs(cfg.Now)
}

// NewShard creates shard index of count for a fabric. Ids allocated by the
// shard are ≡ index+1 (mod count), so they never collide across the fabric
// and routing an id back to its shard is (id-1) mod count.
func NewShard(cfg Config, index, count int) *Shard {
	if count < 1 {
		count = 1
	}
	if index < 0 || index >= count {
		index = 0
	}
	sh := &Shard{}
	initShard(sh, cfg, index, count)
	return sh
}

// WriteJSON writes v as a JSON response with the given status: the
// encoder every non-hot endpoint shares, so their bodies (including the
// trailing newline) are identical wherever they are served.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// stripeNext returns the smallest id in this shard's stripe strictly
// greater than cur. For a 1-shard pool (stripe 1,2,3,…) this is
// cur+1; after a restore it realigns the counter past any restored id.
func (s *Shard) stripeNext(cur int) int {
	base, stride := s.index+1, s.count
	if cur < base {
		return base
	}
	k := (cur - base) / stride
	return base + (k+1)*stride
}

// join admits a worker and returns its id.
func (s *Shard) join(name string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextWorker = s.stripeNext(s.nextWorker)
	pw := &poolWorker{
		id:       s.nextWorker,
		name:     name,
		joinedAt: s.cfg.Now(),
		lastSeen: s.cfg.Now(),
	}
	s.workers[pw.id] = pw
	s.poolSize.Store(int32(len(s.workers)))
	s.logOp(journal.Op{T: journal.OpJoin, Worker: pw.id, Name: name})
	s.startWait(pw)
	return pw.id
}

// removeWorker drops the worker from the pool, settling their wait pay
// and orphaning any stolen in-flight assignment. Callers hold mu.
//
//clamshell:locked callers hold mu
func (s *Shard) removeWorker(id int, reason string) {
	pw, ok := s.workers[id]
	if !ok {
		return
	}
	s.settleWait(pw)
	if pw.current != 0 {
		if u, ok := s.tasks[pw.current]; ok {
			delete(u.active, id)
			s.reindex(u)
		} else {
			// The assignment lives on another shard (stolen work); the
			// fabric releases it after this call returns.
			s.orphans = append(s.orphans, Orphan{Worker: id, Task: pw.current})
			s.orphanCount.Store(int32(len(s.orphans)))
		}
	}
	delete(s.workers, id)
	s.poolSize.Store(int32(len(s.workers)))
	s.logOp(journal.Op{T: journal.OpLeave, Worker: id, Reason: reason})
}

// enqueueLocked admits one validated task spec, applying the quorum/classes
// defaults. Callers hold mu and have checked the spec has records.
func (s *Shard) enqueueLocked(spec TaskSpec) int {
	if spec.Quorum < 1 {
		spec.Quorum = 1
	}
	if spec.Classes < 2 {
		spec.Classes = 2
	}
	s.nextTask = s.stripeNext(s.nextTask)
	s.nextSeq++
	//clamshell:hotpath-ok one active-set allocation per admitted task, amortized across its lifetime
	u := &workUnit{id: s.nextTask, seq: s.nextSeq, spec: spec, active: make(map[int]bool),
		enqueuedAt: s.cfg.Now().UnixNano()}
	s.tasks[u.id] = u
	s.order = append(s.order, u.id)
	s.logOp(journal.Op{
		T: journal.OpSubmit, Task: u.id,
		Records: spec.Records, Classes: spec.Classes, Quorum: spec.Quorum, Priority: spec.Priority,
		Features: spec.Features,
	})
	s.reindex(u)
	return u.id
}

// enqueuedEvent builds the Enqueued label event for a feature-carrying
// unit, or a zero event for a plain one. Callers hold mu and emit after
// unlocking, and only when a sink is attached.
//
//clamshell:locked callers hold mu
func enqueuedEvent(u *workUnit) LabelEvent {
	if len(u.spec.Features) == 0 {
		return LabelEvent{}
	}
	return LabelEvent{
		Kind: LabelEnqueued, Task: u.id,
		Features: u.spec.Features, Classes: u.spec.Classes,
		Records: len(u.spec.Records), Priority: u.spec.Priority,
	}
}

// assignmentOf builds the typed assignment payload for a task. The Records
// slice aliases the task's spec — transports encode it without mutating.
func (s *Shard) assignmentOf(u *workUnit) Assignment {
	return Assignment{TaskID: u.id, Records: u.spec.Records, Classes: u.spec.Classes}
}

func (s *Shard) answered(u *workUnit, workerID int) bool {
	for _, v := range u.voters {
		if v == workerID {
			return true
		}
	}
	return false
}

// retainedStatus builds the /api/result view of a demoted task. An aged
// tally no longer holds per-voter answers; its consensus and answer count
// were captured when it aged.
func retainedStatus(t *RetainedTask) TaskStatus {
	src := ""
	if t.Model {
		src = "model"
	}
	if t.Aged {
		return TaskStatus{
			ID:        t.ID,
			State:     "complete",
			Answers:   t.AnswerCount,
			Consensus: t.Consensus,
			Source:    src,
		}
	}
	st := TaskStatus{
		ID:      t.ID,
		State:   "complete",
		Answers: len(t.Answers),
		Source:  src,
	}
	// A model-finalized tally serves the model's stored answer; a human one
	// recomputes the majority from its retained votes.
	if t.Model {
		st.Consensus = t.Consensus
	} else {
		st.Consensus = majorityOf(t.Answers, t.Records)
	}
	return st
}

// majority computes per-record plurality labels over a unit's answers,
// ties breaking to the lowest class.
func (s *Shard) majority(u *workUnit) []int {
	return majorityOf(u.answers, len(u.spec.Records))
}

// majorityOf computes per-record plurality labels over answer vectors,
// ties breaking to the lowest class.
func majorityOf(answers [][]int, records int) []int {
	out := make([]int, records)
	for rec := 0; rec < records; rec++ {
		//clamshell:hotpath-ok vote tallying needs a per-record count map; runs on Result polls and at most once per task at finalization (and only with a label sink attached)
		counts := make(map[int]int)
		for _, labels := range answers {
			counts[labels[rec]]++
		}
		best, bestN := -1, 0
		for label, n := range counts {
			if n > bestN || (n == bestN && best != -1 && label < best) {
				best, bestN = label, n
			}
		}
		out[rec] = best
	}
	return out
}

// expireWorkers drops workers that stopped heartbeating and requeues their
// assignments. A dead worker's paid-wait span is clipped at the moment its
// liveness lapsed (last heartbeat + timeout): however late the expiry is
// noticed, a worker that disappeared does not keep billing wait pay for the
// time nobody was looking.
//
// The scan is skipped entirely while nothing can possibly expire: each full
// pass records min(lastSeen) + timeout as the earliest next expiry, and
// since liveness timestamps only move forward (and joins start live), no
// scan before that instant can find a victim. This keeps the common case
// O(1) — the full walk happens at most once per timeout window, not once
// per poll. Callers must hold mu.
//
//clamshell:locked callers hold mu
func (s *Shard) expireWorkers() {
	now := s.cfg.Now()
	if !s.nextExpiry.IsZero() && now.Before(s.nextExpiry) {
		return
	}
	cutoff := now.Add(-s.cfg.WorkerTimeout)
	var minSeen time.Time
	for id, pw := range s.workers {
		if pw.lastSeen.Before(cutoff) {
			if !pw.waitStart.IsZero() {
				if end := pw.lastSeen.Add(s.cfg.WorkerTimeout); end.After(pw.waitStart) {
					pay := metrics.PerMinute(s.cfg.Costs.WaitPayPerMin, end.Sub(pw.waitStart))
					s.costs.WaitPay += pay
					if pay != 0 {
						s.logOp(journal.Op{T: journal.OpWaitPay, Worker: id, Pay: int64(pay)})
					}
				}
				pw.waitStart = time.Time{}
			}
			s.expired++
			s.removeWorker(id, "expire")
			continue
		}
		if minSeen.IsZero() || pw.lastSeen.Before(minSeen) {
			minSeen = pw.lastSeen
		}
	}
	if minSeen.IsZero() {
		// Empty pool: any future worker joins live (lastSeen ≥ now), so
		// nothing can expire for a full timeout from now.
		s.nextExpiry = now.Add(s.cfg.WorkerTimeout)
	} else {
		s.nextExpiry = minSeen.Add(s.cfg.WorkerTimeout)
	}
}

func intQuery(r *http.Request, key string) (int, error) {
	// strconv.Atoi rejects trailing garbage ("12abc"), which fmt.Sscanf
	// silently accepted as 12.
	v, err := strconv.Atoi(r.URL.Query().Get(key))
	if err != nil {
		return 0, fmt.Errorf("missing or bad query parameter %q", key)
	}
	return v, nil
}
