package server

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"

	"github.com/clamshell/clamshell/internal/metrics"
)

// Durability: a shard can snapshot its task queue and accounting to JSON
// and restore it after a restart. Workers are deliberately not persisted —
// retainer sessions are live HTTP conversations that cannot survive a
// process restart; workers simply rejoin and the restored queue is routed
// to them. In-flight assignments at snapshot time are likewise dropped back
// to the queue (the same thing that happens when a worker times out), so a
// restore never loses a task and never double-counts an answer.
//
// Durable state splits into two tiers. Live tasks carry everything: the
// record payloads, the answer set, the dispatch metadata. Completed tasks
// past the retention window are demoted to RetainedTask vote tallies —
// just the per-worker label vectors /api/consensus needs to keep judging
// worker reliability on full history — and their record payloads are
// dropped. The JSON snapshot here carries both tiers and remains the
// compatibility wire format for /api/snapshot and /api/restore; the
// journal.Store engine (see journal.go) persists the live tier per
// compaction and the tally tier append-only.
//
// The state types are exported so the fabric can merge per-shard snapshots
// into one document in this wire format, and split one back across shards
// on restore.

// SnapshotVersion guards against loading snapshots from incompatible
// builds. Version 1 has grown two additive, omitempty fields since its
// introduction (TaskState.DoneAt and SnapshotState.Retained); decoders
// tolerate their absence, so every version-1 document ever written still
// loads. Anything that would change the meaning of existing fields must
// bump the version.
const SnapshotVersion = 1

// TaskState is one live task's durable state.
type TaskState struct {
	ID      int      `json:"id"`
	Spec    TaskSpec `json:"spec"`
	Answers [][]int  `json:"answers,omitempty"`
	Voters  []int    `json:"voters,omitempty"`
	Done    bool     `json:"done"`
	DoneAt  int64    `json:"done_at,omitempty"` // unix nanoseconds; 0 when unknown

	// Model provenance: a hybrid-plane auto-finalized task serves
	// ModelLabels as its consensus; Answers/Voters keep the human votes
	// gathered before the decision. Both omitempty — snapshots without the
	// hybrid plane are byte-identical to earlier builds.
	Model       bool  `json:"model,omitempty"`
	ModelLabels []int `json:"model_labels,omitempty"`
}

// RetainedTask is the compacted tally of a completed task past the
// retention window: the vote graph rows /api/consensus needs (who labeled
// what), the task's dimensions, and nothing else — the record payloads,
// the dominant share of a task's bytes, are gone.
//
// A tally past the (optional) aging horizon compacts once more, into a
// count-only aggregate: the consensus labels and answer count are frozen
// and the per-voter vectors dropped. Aged tallies still answer /api/result
// and still count toward the task totals; they no longer contribute votes
// to consensus re-estimation. All three aging fields are omitempty, so
// snapshots written before aging existed are byte-identical.
type RetainedTask struct {
	ID      int     `json:"id"`
	Records int     `json:"records"` // record count (payloads dropped)
	Classes int     `json:"classes"`
	Answers [][]int `json:"answers,omitempty"`
	Voters  []int   `json:"voters,omitempty"`
	DoneAt  int64   `json:"done_at,omitempty"`

	Aged        bool  `json:"aged,omitempty"`
	AnswerCount int   `json:"answer_count,omitempty"` // answers at aging time
	Consensus   []int `json:"consensus,omitempty"`    // majority labels at aging time (model answer for Model tallies)

	// Model marks a tally whose task was auto-finalized by the hybrid
	// plane; its Consensus is the model's answer, stored at demotion time
	// (aged or not), and its Answers/Voters are the human votes gathered
	// before the decision.
	Model bool `json:"model,omitempty"`
}

// SnapshotState is the full durable state of one pool (one fabric shard,
// or a whole fabric once merged).
type SnapshotState struct {
	Version      int                `json:"version"`
	NextTask     int                `json:"next_task"`
	NextWorker   int                `json:"next_worker"`
	Terminated   int                `json:"terminated"`
	RetiredCount int                `json:"retired_count"`
	Retired      []int              `json:"retired,omitempty"`
	Costs        metrics.Accounting `json:"costs"`
	Order        []int              `json:"order,omitempty"`
	Tasks        []TaskState        `json:"tasks,omitempty"`
	Retained     []RetainedTask     `json:"retained,omitempty"`

	// AutoFinalized counts tasks finalized by the hybrid plane's model
	// (additive, omitempty: plain snapshots are unchanged).
	AutoFinalized int `json:"auto_finalized,omitempty"`
}

// EncodeSnapshot serializes a snapshot state in the wire format. The
// output is deterministic (struct field order, no maps), which the golden
// compatibility tests rely on.
func EncodeSnapshot(st SnapshotState) ([]byte, error) {
	return json.MarshalIndent(st, "", "  ")
}

// DecodeSnapshot parses and validates snapshot JSON. Every structural
// invariant is checked here so importing a validated state cannot fail
// halfway (the fabric imports one state per shard and must not end up
// partially restored).
func DecodeSnapshot(data []byte) (SnapshotState, error) {
	var st SnapshotState
	if err := json.Unmarshal(data, &st); err != nil {
		return st, fmt.Errorf("server: decoding snapshot: %w", err)
	}
	if st.Version != SnapshotVersion {
		return st, fmt.Errorf("server: snapshot version %d, want %d", st.Version, SnapshotVersion)
	}
	seen := make(map[int]bool, len(st.Tasks)+len(st.Retained))
	for _, ts := range st.Tasks {
		if ts.ID < 1 {
			return st, fmt.Errorf("server: snapshot task id %d out of range", ts.ID)
		}
		if seen[ts.ID] {
			return st, fmt.Errorf("server: snapshot task %d appears twice", ts.ID)
		}
		if len(ts.Spec.Records) == 0 {
			return st, fmt.Errorf("server: snapshot task %d has no records", ts.ID)
		}
		if len(ts.Answers) != len(ts.Voters) {
			return st, fmt.Errorf("server: snapshot task %d: %d answers but %d voters",
				ts.ID, len(ts.Answers), len(ts.Voters))
		}
		for _, a := range ts.Answers {
			if len(a) != len(ts.Spec.Records) {
				return st, fmt.Errorf("server: snapshot task %d: answer with %d labels, want %d",
					ts.ID, len(a), len(ts.Spec.Records))
			}
		}
		if ts.Model {
			if !ts.Done {
				return st, fmt.Errorf("server: snapshot task %d is model-finalized but not done", ts.ID)
			}
			if len(ts.ModelLabels) != len(ts.Spec.Records) {
				return st, fmt.Errorf("server: snapshot task %d: model answer with %d labels, want %d",
					ts.ID, len(ts.ModelLabels), len(ts.Spec.Records))
			}
		} else if len(ts.ModelLabels) != 0 {
			return st, fmt.Errorf("server: snapshot task %d carries model labels without model provenance", ts.ID)
		}
		seen[ts.ID] = true
	}
	for _, rt := range st.Retained {
		// validateTally enforces the shared shape invariants; only the
		// cross-tier duplicate check is snapshot-specific.
		if err := validateTally(rt); err != nil {
			return st, err
		}
		if seen[rt.ID] {
			return st, fmt.Errorf("server: snapshot task %d is both live and retained", rt.ID)
		}
		seen[rt.ID] = true
	}
	for _, tid := range st.Order {
		if !seen[tid] {
			return st, fmt.Errorf("server: snapshot order references unknown task %d", tid)
		}
	}
	for _, id := range st.Retired {
		if id < 1 {
			return st, fmt.Errorf("server: snapshot retired worker id %d out of range", id)
		}
	}
	return st, nil
}

// ExportState captures the shard's full durable state: live tasks,
// retained tallies, counters and accounting.
func (s *Shard) ExportState() SnapshotState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.exportLocked(true)
}

// exportLocked builds the durable state. full includes the retained
// tallies (the wire-format facade); the journal engine passes false
// because tallies are persisted once, append-only, in the store's
// retained log rather than re-serialized into every compaction snapshot —
// that is what keeps per-compaction cost O(live state). Callers hold mu.
func (s *Shard) exportLocked(full bool) SnapshotState {
	st := SnapshotState{
		Version:      SnapshotVersion,
		NextTask:     s.nextTask,
		NextWorker:   s.nextWorker,
		Terminated:   s.terminated,
		RetiredCount: s.retiredCount,
		Costs:        s.costs,
	}
	st.AutoFinalized = s.autoFinalized
	for id := range s.retired {
		st.Retired = append(st.Retired, id)
	}
	sort.Ints(st.Retired)
	// The order slice is ascending (per-shard ids are allocated
	// monotonically, and the tally overlay inserts in id position), so a
	// live-only export can walk the small live map and sort instead of
	// scanning the full history order — O(live), which is what keeps each
	// compaction's snapshot cost independent of how long the shard has run.
	walk := s.order
	if !full {
		walk = make([]int, 0, len(s.tasks))
		for tid := range s.tasks {
			walk = append(walk, tid)
		}
		sort.Ints(walk)
	}
	for _, tid := range walk {
		if u, ok := s.tasks[tid]; ok {
			ts := TaskState{
				ID:          u.id,
				Spec:        u.spec,
				Answers:     u.answers,
				Voters:      u.voters,
				Done:        u.done,
				Model:       u.model,
				ModelLabels: u.modelLabels,
			}
			if !u.doneAt.IsZero() {
				ts.DoneAt = u.doneAt.UnixNano()
			}
			st.Tasks = append(st.Tasks, ts)
			st.Order = append(st.Order, tid)
			continue
		}
		if t, ok := s.tallies[tid]; ok && full {
			st.Retained = append(st.Retained, *t)
			st.Order = append(st.Order, tid)
		}
	}
	return st
}

// ImportState replaces the shard's durable state with a validated snapshot
// state (see DecodeSnapshot). All connected workers are dropped (they
// rejoin); unfinished tasks return to the queue. The id counters realign to
// this shard's stripe on the next allocation, so restoring a snapshot from
// a differently-sharded fabric never collides.
func (s *Shard) ImportState(st SnapshotState) {
	tasks := make(map[int]*workUnit, len(st.Tasks))
	for _, ts := range st.Tasks {
		tasks[ts.ID] = &workUnit{
			id:          ts.ID,
			spec:        ts.Spec,
			answers:     ts.Answers,
			voters:      ts.Voters,
			active:      make(map[int]bool),
			done:        ts.Done,
			doneAt:      time.Unix(0, ts.DoneAt),
			model:       ts.Model,
			modelLabels: ts.ModelLabels,
		}
	}
	tallies := make(map[int]*RetainedTask, len(st.Retained))
	dirty := make(map[int]*RetainedTask, len(st.Retained))
	for i := range st.Retained {
		t := st.Retained[i]
		tallies[t.ID] = &t
		// Imported tallies are not in any store's retained log yet; they
		// stay dirty until a compaction commit persists them.
		dirty[t.ID] = &t
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.cfg.Now()
	s.tasks = tasks
	s.tallies = tallies
	s.talliesDirty = dirty
	s.agePending = nil
	for _, t := range tallies {
		s.enqueueForAging(t)
	}
	s.order = append([]int(nil), st.Order...)
	// Rebuild the dispatch index from scratch: sequence numbers follow the
	// restored submission order, so FIFO-within-priority hand-out order
	// survives the round trip. Retained ids stay in the order slice (the
	// consensus views walk it) but are never indexed — they are done.
	s.dispatch = [2]dispatchPart{}
	s.nextSeq = 0
	for _, tid := range s.order {
		u, ok := tasks[tid]
		if !ok {
			continue
		}
		s.nextSeq++
		u.seq = s.nextSeq
		if u.done && u.doneAt.UnixNano() == 0 {
			// Legacy snapshot without completion times: age from now, so
			// retention starts counting at restore.
			u.doneAt = now
		} else if !u.done {
			u.doneAt = time.Time{}
		}
		s.reindex(u)
	}
	s.workers = make(map[int]*poolWorker)
	s.poolSize.Store(0)
	s.nextExpiry = time.Time{}
	s.nextTask = st.NextTask
	s.nextWorker = st.NextWorker
	s.terminated = st.Terminated
	s.retiredCount = st.RetiredCount
	s.retired = make(map[int]bool, len(st.Retired))
	for _, id := range st.Retired {
		s.retired[id] = true
	}
	s.costs = st.Costs
	s.autoFinalized = st.AutoFinalized
	s.orphans = nil
	s.orphanCount.Store(0)
}

// Snapshot serializes the pool's durable state as JSON.
func (s *Shard) Snapshot() ([]byte, error) {
	return EncodeSnapshot(s.ExportState())
}

// Restore replaces the pool's durable state with a snapshot produced by
// Snapshot.
func (s *Shard) Restore(data []byte) error {
	st, err := DecodeSnapshot(data)
	if err != nil {
		return err
	}
	s.ImportState(st)
	return nil
}
