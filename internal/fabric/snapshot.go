package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"github.com/clamshell/clamshell/internal/server"
)

// Fabric-wide persistence facade. The wire format is exactly one shard's
// snapshot (server.EncodeSnapshot): per-shard states merge into one
// document on the way out and split back across shards on the way in.
// Because restore routes each task by the universal (id-1) mod n rule and
// shard id counters realign to their stripe past any restored id, a
// snapshot taken on an n-shard fabric restores cleanly onto an m-shard
// fabric for any n and m — resizing the fabric is a snapshot/restore away.
// The journal engine's resize-on-restore path (persist.go) rides the same
// merge/split helpers.

// mergeStates folds per-shard durable states into one document in the
// snapshot wire format. Global submission order is not tracked across
// shards; id order is the best-effort merge (per-shard FIFO is preserved
// because each shard allocates monotonically within its stripe).
func mergeStates(states []server.SnapshotState) server.SnapshotState {
	merged := server.SnapshotState{Version: server.SnapshotVersion}
	for _, st := range states {
		if st.NextTask > merged.NextTask {
			merged.NextTask = st.NextTask
		}
		if st.NextWorker > merged.NextWorker {
			merged.NextWorker = st.NextWorker
		}
		merged.Terminated += st.Terminated
		merged.RetiredCount += st.RetiredCount
		merged.Retired = append(merged.Retired, st.Retired...)
		merged.Costs = merged.Costs.Add(st.Costs)
		merged.Order = append(merged.Order, st.Order...)
		merged.Tasks = append(merged.Tasks, st.Tasks...)
		merged.Retained = append(merged.Retained, st.Retained...)
	}
	sort.Ints(merged.Order)
	sort.Ints(merged.Retired)
	sort.Slice(merged.Tasks, func(i, j int) bool { return merged.Tasks[i].ID < merged.Tasks[j].ID })
	sort.Slice(merged.Retained, func(i, j int) bool { return merged.Retained[i].ID < merged.Retained[j].ID })
	return merged
}

// splitState routes a merged durable state across n shards by the
// universal (id-1) mod n rule — the same rule the router uses to find an
// id's owning shard, so every restored task remains addressable.
func splitState(st server.SnapshotState, n int) []server.SnapshotState {
	per := make([]server.SnapshotState, n)
	for i := range per {
		per[i].Version = server.SnapshotVersion
		// Counters are global high-water marks; every shard realigns its
		// next allocation into its own stripe past them.
		per[i].NextTask = st.NextTask
		per[i].NextWorker = st.NextWorker
	}
	// Global sums live on shard 0; aggregation endpoints sum across shards.
	per[0].Terminated = st.Terminated
	per[0].RetiredCount = st.RetiredCount
	per[0].Costs = st.Costs
	for _, ts := range st.Tasks {
		i := (ts.ID - 1) % n
		per[i].Tasks = append(per[i].Tasks, ts)
	}
	for _, rt := range st.Retained {
		i := (rt.ID - 1) % n
		per[i].Retained = append(per[i].Retained, rt)
	}
	for _, tid := range st.Order {
		per[(tid-1)%n].Order = append(per[(tid-1)%n].Order, tid)
	}
	for _, wid := range st.Retired {
		per[(wid-1)%n].Retired = append(per[(wid-1)%n].Retired, wid)
	}
	return per
}

// Snapshot merges every shard's durable state into one document in the
// snapshot wire format.
func (f *Fabric) Snapshot() ([]byte, error) {
	if len(f.shards) == 1 {
		return f.shards[0].Snapshot()
	}
	states := make([]server.SnapshotState, len(f.shards))
	for i, sh := range f.shards {
		states[i] = sh.ExportState()
	}
	return server.EncodeSnapshot(mergeStates(states))
}

// Restore replaces the fabric's durable state with a snapshot, routing
// every task and retired-worker record to the shard its id maps to. All
// connected workers are dropped (they rejoin); unfinished tasks return to
// their shard's queue. With the journal engine enabled, the imported state
// is compacted to disk before Restore returns, so the restore is durable
// at the moment it is acknowledged.
func (f *Fabric) Restore(data []byte) error {
	if f.nodeCount > 1 {
		// A node slice cannot re-split a merged document by itself: ids it
		// does not own would land on local shards and break fabric-wide
		// routing. Restores go through a full single-node boot.
		return errors.New("fabric: restore unsupported on a multi-node slice")
	}
	st, err := server.DecodeSnapshot(data)
	if err != nil {
		return err
	}
	if f.persist.Load() != nil {
		// Wholesale replacement goes through the RESIZE checkpoint: the
		// shard stores are rebuilt so stale journals and stale retained
		// tallies cannot resurrect replaced state at the next boot.
		return f.replaceState(st)
	}
	if n := len(f.shards); n == 1 {
		f.shards[0].ImportState(st)
	} else {
		for i, per := range splitState(st, n) {
			f.shards[i].ImportState(per)
		}
	}
	return nil
}

// handleSnapshot serves the merged durable state as JSON.
func (f *Fabric) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	data, err := f.Snapshot()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

// handleRestore loads durable state from the request body.
func (f *Fabric) handleRestore(w http.ResponseWriter, r *http.Request) {
	var buf json.RawMessage
	if err := json.NewDecoder(r.Body).Decode(&buf); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("reading snapshot body: %w", err))
		return
	}
	if err := f.Restore(buf); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	server.WriteJSON(w, http.StatusOK, map[string]bool{"ok": true})
}
