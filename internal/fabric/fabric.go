// Package fabric runs N independent retainer-pool shards behind a single
// HTTP router, scaling the live server past its one global mutex. Each
// shard (internal/server.Shard) owns its own lock, task queue, worker set,
// accounting and maintenance state; the router
//
//   - places tasks on shards by consistent hashing of their record content
//     (jump hashing, so a resize relocates the minimum number of keys),
//     with explicit priorities preserved within each shard's queue;
//   - pins workers to shards round-robin on join, so the poll/submit hot
//     path contends only on the worker's home shard;
//   - steals work across shards when the home shard's queue drains —
//     starved tasks anywhere in the fabric are exhausted before any shard
//     hands out a speculative straggler duplicate, so the paper's
//     straggler mitigation operates fabric-wide, not per-shard;
//   - aggregates status, worker stats, accounting, cross-task consensus
//     and snapshot persistence across shards.
//
// A fabric is a node's one HTTP server: every endpoint — the hot protocol
// ops (server.RegisterCoreRoutes) and the aggregate status, workers, costs,
// consensus, snapshot/restore, health and metrics views — has exactly one
// implementation, and a 1-shard fabric (New(cfg, 1)) is the single-pool
// deployment. Its protocol is pinned byte-for-byte by a golden transcript
// recorded from the historical single-mutex server (compat_test.go).
//
// Ids are globally unique and shard-addressable: shard s of n allocates
// ids ≡ s+1 (mod n), so routing an id to its shard is (id-1) mod n with no
// shared state.
//
// Shard methods never call across shards, so the router sequences
// cross-shard operations (a stolen fetch, a submit whose worker and task
// live apart) as independent lock acquisitions with explicit rollback —
// there is no lock ordering to violate and no path holds two shard locks.
package fabric

import (
	"net/http"
	"sync/atomic"
	"time"

	"github.com/clamshell/clamshell/internal/hashring"
	"github.com/clamshell/clamshell/internal/server"
)

// Fabric is a sharded retainer-pool router. It implements http.Handler.
type Fabric struct {
	cfg       server.Config
	shards    []*server.Shard
	nodeIndex int // this node's stripe in the fabric-wide id space
	nodeCount int // total nodes sharing the id space (1 = standalone)
	mux       *http.ServeMux
	now       func() time.Time
	startedAt time.Time
	obs       *server.Obs
	nextHome  atomic.Uint64 // rotation candidate for worker pinning
	probe     atomic.Uint64 // counter behind the second join-placement probe

	// persist is the journal engine (nil until OpenPersist); atomic so
	// handlers can read it while a restore rebuilds or a close tears it
	// down.
	persist atomic.Pointer[persistState]

	// repl is the replication plane (nil until EnableReplication).
	repl atomic.Pointer[replPlane]

	// hybrid is the learning plane (nil until EnableHybrid).
	hybrid hybridPlane
}

// New creates a fabric of n shards (n < 1 is treated as 1). All shards
// share one Config.
func New(cfg server.Config, n int) *Fabric {
	return NewNode(cfg, n, 0, 1)
}

// NewNode creates one node's slice of a multi-node fabric: m local shards
// out of nodeCount×m fabric-wide, where this node (index nodeIndex) owns
// every global shard g with g ≡ nodeIndex (mod nodeCount). Ids remain
// globally unique and shard-addressable across the whole fabric — local
// shard j allocates ids in global stripe nodeIndex + nodeCount·j — so a
// router holding only nodeCount can address any id's owning node as
// (id-1) mod nodeCount. A nodeCount of 1 is exactly the historical
// single-node fabric, byte-for-byte.
func NewNode(cfg server.Config, m, nodeIndex, nodeCount int) *Fabric {
	if m < 1 {
		m = 1
	}
	if nodeCount < 1 {
		nodeCount = 1
	}
	if nodeIndex < 0 || nodeIndex >= nodeCount {
		nodeIndex = 0
	}
	f := &Fabric{cfg: cfg, nodeIndex: nodeIndex, nodeCount: nodeCount}
	total := nodeCount * m
	for j := 0; j < m; j++ {
		f.shards = append(f.shards, server.NewShard(cfg, nodeIndex+nodeCount*j, total))
	}
	f.now = time.Now
	if cfg.Now != nil {
		f.now = cfg.Now
	}
	f.startedAt = f.now()
	f.obs = server.NewObs(cfg.Now)
	f.mux = http.NewServeMux()
	server.RegisterCoreRoutes(f.mux, f)
	f.mux.HandleFunc("GET /api/status", f.handleStatus)
	f.mux.HandleFunc("GET /api/workers", f.handleWorkers)
	f.mux.HandleFunc("GET /api/costs", f.handleCosts)
	f.mux.HandleFunc("GET /api/consensus", f.handleConsensus)
	f.mux.HandleFunc("GET /api/snapshot", f.handleSnapshot)
	f.mux.HandleFunc("POST /api/restore", f.handleRestore)
	f.mux.HandleFunc("GET /api/healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /api/metricsz", f.handleMetricsz)
	f.mux.HandleFunc("GET /metrics", f.handleMetricsz)
	f.mux.HandleFunc("GET /metrics/sketch", f.handleMetricsSketch)
	f.mux.HandleFunc("GET /{$}", server.WorkerUI)
	return f
}

// ServeHTTP dispatches to the API mux.
func (f *Fabric) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// NumShards returns the shard count.
func (f *Fabric) NumShards() int { return len(f.shards) }

// Obs returns the fabric's transport observability state. It satisfies the
// same interface sniffed by RegisterCoreRoutes and the wire server, so both
// transports record per-op latencies into one place.
func (f *Fabric) Obs() *server.Obs { return f.obs }

// shardOf maps a globally-unique id (worker or task) to its owning shard:
// nil for ids outside the allocated space or owned by another node.
func (f *Fabric) shardOf(id int) *server.Shard {
	if id < 1 {
		return nil
	}
	g := (id - 1) % (f.nodeCount * len(f.shards))
	if g%f.nodeCount != f.nodeIndex {
		return nil
	}
	return f.shards[g/f.nodeCount]
}

// localIndex returns the position in f.shards of the shard owning id.
// Callers must have checked shardOf(id) != nil.
func (f *Fabric) localIndex(id int) int {
	return ((id - 1) % (f.nodeCount * len(f.shards))) / f.nodeCount
}

// placeShard chooses the shard for a new task by consistent-hashing its
// record content.
func (f *Fabric) placeShard(spec server.TaskSpec) *server.Shard {
	return f.shards[hashring.Jump(hashring.HashStrings(spec.Records), len(f.shards))]
}

// homeShard picks the shard for a joining worker: power-of-two-choices on
// current pool size. Candidate A rotates round-robin; candidate B is a
// pseudo-random probe (a counter mixed through splitmix64 — cheap,
// lock-free, and deterministic across runs so protocol tests stay
// reproducible). The smaller pool wins; ties go to the rotation, so on a
// balanced fabric placement is exactly the historical round-robin.
func (f *Fabric) homeShard() *server.Shard {
	n := uint64(len(f.shards))
	a := f.shards[int((f.nextHome.Add(1)-1)%n)]
	if n == 1 {
		return a
	}
	x := f.probe.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if b := f.shards[int(x%n)]; b != a && b.PoolSize() < a.PoolSize() {
		return b
	}
	return a
}

// PoolSizes reports the current worker-pool size of every shard (ops
// visibility and the churn-balance regression test).
func (f *Fabric) PoolSizes() []int {
	out := make([]int, len(f.shards))
	for i, sh := range f.shards {
		out[i] = sh.PoolSize()
	}
	return out
}

// release resolves any cross-shard assignments orphaned by worker removal
// on sh: the active slot is cleared on the task's owning shard so the task
// returns to that shard's queue. Called after any shard operation that can
// expire or remove workers.
func (f *Fabric) release(sh *server.Shard) {
	for _, o := range sh.DrainOrphans() {
		if t := f.shardOf(o.Task); t != nil && t != sh {
			t.ReleaseActive(o.Task, o.Worker)
		}
	}
}

// writeErr serves an error as the protocol's {"error": ...} JSON body.
func writeErr(w http.ResponseWriter, status int, err error) {
	server.WriteJSON(w, status, map[string]string{"error": err.Error()})
}
