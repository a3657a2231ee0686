package fabric

import (
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/clamshell/clamshell/internal/hashring"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// Router is a stateless front end over a multi-node fabric: it implements
// server.Core by forwarding each op to the node owning the id's stripe —
// node (id-1) mod nodeCount, the same universal rule shards use — so it
// serves both the HTTP facade (http.Handler) and the wire protocol
// (wire.NewServer(router)) unchanged. New tasks are placed by consistent-
// hashing record content across nodes (jump hashing, mirroring the
// in-node shard placement); joins round-robin across reachable nodes.
//
// The router holds no task or worker state, so any number of routers can
// front the same fabric. Work stealing does not cross nodes: a worker only
// ever holds tasks from its own node, which is what lets a submit be
// forwarded whole to one node instead of splitting its task- and
// worker-halves across two.
type Router struct {
	nodes     []*RemoteShard
	mux       *http.ServeMux
	now       func() time.Time
	startedAt time.Time
	joinRR    atomic.Uint64
}

// NewRouter fronts the given nodes (one RemoteShard per fabric node, in
// node-index order — the order IS the stripe assignment).
func NewRouter(nodes []*RemoteShard, now func() time.Time) *Router {
	if now == nil {
		now = time.Now
	}
	rt := &Router{nodes: nodes, now: now, startedAt: now()}
	rt.mux = http.NewServeMux()
	server.RegisterCoreRoutes(rt.mux, rt)
	rt.mux.HandleFunc("GET /api/snapshot", rt.handleSnapshot)
	rt.mux.HandleFunc("GET /api/healthz", rt.handleHealthz)
	return rt
}

// ServeHTTP dispatches to the router's API mux.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.mux.ServeHTTP(w, r)
}

// Reconnects sums wire reconnections across all node clients.
func (rt *Router) Reconnects() uint64 {
	var n uint64
	for _, node := range rt.nodes {
		n += node.Reconnects()
	}
	return n
}

// nodeOf returns the node owning id's stripe, or nil for bad ids.
func (rt *Router) nodeOf(id int) *RemoteShard {
	if id < 1 {
		return nil
	}
	return rt.nodes[(id-1)%len(rt.nodes)]
}

// CoreJoin admits a worker on the first reachable node, round-robin.
// 0 means no node is reachable (stUnavailable / HTTP 503 upstream).
// Router ops are deliberately not hot-path annotated: a network round
// trip dominates any allocation they make.
func (rt *Router) CoreJoin(name string) int {
	n := len(rt.nodes)
	start := int((rt.joinRR.Add(1) - 1) % uint64(n))
	for off := 0; off < n; off++ {
		node := rt.nodes[(start+off)%n]
		if !node.Available() {
			continue
		}
		if id, err := node.Join(name); err == nil && id > 0 {
			return id
		}
	}
	return 0
}

// CoreHeartbeat forwards to the worker's node. An unreachable node reads
// as an unknown worker: the worker re-joins once the node (or its
// replacement) is back, which is exactly the recovery path it needs.
func (rt *Router) CoreHeartbeat(workerID int) bool {
	node := rt.nodeOf(workerID)
	return node != nil && node.Heartbeat(workerID) == nil
}

// CoreLeave forwards to the worker's node, best-effort.
func (rt *Router) CoreLeave(workerID int) {
	if node := rt.nodeOf(workerID); node != nil {
		_ = node.Leave(workerID)
	}
}

// CoreEnqueue places each spec on a node by consistent-hashing its record
// content and forwards each node's share as one batch — one frame and one
// replication barrier per node, not per task; ids return in request
// order. Nodes are contacted in order of their first spec. On a node
// error, the nodes contacted before it have enqueued their whole share and
// the rest nothing — the same partial-batch contract as the local fabric,
// at node rather than spec granularity.
func (rt *Router) CoreEnqueue(specs []server.TaskSpec) ([]int, error) {
	if len(specs) == 0 {
		return nil, server.ErrNoTasksGiven
	}
	for _, spec := range specs {
		if err := server.ValidateSpec(spec); err != nil {
			return nil, err
		}
	}
	owner := make([]int, len(specs))
	share := make([][]server.TaskSpec, len(rt.nodes))
	var order []int // nodes by first appearance
	for i, spec := range specs {
		n := hashring.Jump(hashring.HashStrings(spec.Records), len(rt.nodes))
		owner[i] = n
		if share[n] == nil {
			order = append(order, n)
		}
		share[n] = append(share[n], spec)
	}
	got := make([][]int, len(rt.nodes))
	for _, n := range order {
		ids, err := rt.nodes[n].Enqueue(share[n])
		if err != nil {
			return nil, rt.mapUnavailable(err)
		}
		if len(ids) != len(share[n]) {
			return nil, fmt.Errorf("fabric: node %d returned %d ids for %d tasks", n, len(ids), len(share[n]))
		}
		got[n] = ids
	}
	ids := make([]int, len(specs))
	for i, n := range owner {
		ids[i] = got[n][0]
		got[n] = got[n][1:]
	}
	return ids, nil
}

// CoreFetch forwards the poll to the worker's node.
func (rt *Router) CoreFetch(workerID int) (server.Assignment, server.FetchDisposition) {
	node := rt.nodeOf(workerID)
	if node == nil {
		return server.Assignment{}, server.FetchNoWorker
	}
	a, ok, err := node.Fetch(workerID)
	switch {
	case err == nil && ok:
		return a, server.FetchAssigned
	case err == nil:
		return server.Assignment{}, server.FetchNoWork
	case isGone(err):
		return server.Assignment{}, server.FetchGoneRetired
	case isNotFound(err):
		return server.Assignment{}, server.FetchNoWorker
	default:
		return server.Assignment{}, server.FetchUnavailable
	}
}

// CoreSubmit forwards the completed assignment to the worker's node. The
// task is always local to that node (no cross-node stealing), so the
// node's fabric runs both halves under its own roof.
func (rt *Router) CoreSubmit(workerID, taskID int, labels []int) (server.SubmitReply, *server.CoreError) {
	node := rt.nodeOf(workerID)
	if node == nil {
		return server.SubmitReply{}, &server.CoreError{NotFound: true, Err: server.ErrUnknownWorker}
	}
	accepted, terminated, err := node.Submit(workerID, taskID, labels)
	if err != nil {
		return server.SubmitReply{}, rt.submitErr(err)
	}
	return server.SubmitReply{Accepted: accepted, Terminated: terminated}, nil
}

// CoreResult reports a task's status from its node.
func (rt *Router) CoreResult(taskID int) (server.TaskStatus, bool) {
	node := rt.nodeOf(taskID)
	if node == nil {
		return server.TaskStatus{}, false
	}
	ts, err := node.Result(taskID)
	if err != nil {
		return server.TaskStatus{}, false
	}
	return ts, true
}

// Snapshot merges every node's snapshot document into one fabric-wide
// document in the snapshot codec.
func (rt *Router) Snapshot() ([]byte, error) {
	states := make([]server.SnapshotState, 0, len(rt.nodes))
	for _, node := range rt.nodes {
		data, err := node.SnapshotJSON()
		if err != nil {
			return nil, rt.mapUnavailable(err)
		}
		st, err := server.DecodeSnapshot(data)
		if err != nil {
			return nil, err
		}
		states = append(states, st)
	}
	return server.EncodeSnapshot(mergeStates(states))
}

func (rt *Router) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	data, err := rt.Snapshot()
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, server.ErrUnavailable) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(data)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	reachable := 0
	for _, node := range rt.nodes {
		if node.Available() {
			reachable++
		}
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":              reachable > 0,
		"role":            "router",
		"uptime_ms":       rt.now().Sub(rt.startedAt).Milliseconds(),
		"nodes":           len(rt.nodes),
		"nodes_reachable": reachable,
	})
}

// mapUnavailable folds transport-level failures into the canonical
// unavailability error; in-band errors pass through (stripped back to the
// remote's message) for the facade to translate as usual.
func (rt *Router) mapUnavailable(err error) error {
	if isInBand(err) {
		var se *wire.StatusError
		errors.As(err, &se)
		return errors.New(se.Msg)
	}
	return server.ErrUnavailable
}

func (rt *Router) submitErr(err error) *server.CoreError {
	if isInBand(err) {
		var se *wire.StatusError
		errors.As(err, &se)
		return &server.CoreError{NotFound: se.NotFound() || se.Gone(), Err: errors.New(se.Msg)}
	}
	return &server.CoreError{Err: server.ErrUnavailable}
}

// isInBand reports an error the remote node answered with (as opposed to
// a transport failure or fail-fast unavailability).
func isInBand(err error) bool {
	var se *wire.StatusError
	return errors.As(err, &se) && !se.Unavailable()
}

func isGone(err error) bool {
	var se *wire.StatusError
	return errors.As(err, &se) && se.Gone()
}

func isNotFound(err error) bool {
	var se *wire.StatusError
	return errors.As(err, &se) && se.NotFound()
}
