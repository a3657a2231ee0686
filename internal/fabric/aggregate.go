package fabric

import (
	"errors"
	"fmt"
	"net/http"
	"sort"

	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/metrics"
	"github.com/clamshell/clamshell/internal/quality"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/sketch"
	"github.com/clamshell/clamshell/internal/stats"
)

// Aggregation endpoints: fabric-wide views assembled from per-shard
// contributions. Counters sum; worker lists merge and sort; the consensus
// vote graph pools every answer on every shard into one estimation problem
// so worker reliability is judged on fabric-wide evidence.

// handleStatus sums pool and queue health across shards.
func (f *Fabric) handleStatus(w http.ResponseWriter, r *http.Request) {
	var total server.Counters
	for _, sh := range f.shards {
		c := sh.CountersNow()
		f.release(sh)
		total.Tasks += c.Tasks
		total.Complete += c.Complete
		total.Workers += c.Workers
		total.Idle += c.Idle
		total.Terminated += c.Terminated
		total.Retired += c.Retired
	}
	server.WriteJSON(w, http.StatusOK, map[string]int{
		"tasks":      total.Tasks,
		"complete":   total.Complete,
		"workers":    total.Workers,
		"idle":       total.Idle,
		"terminated": total.Terminated,
		"retired":    total.Retired,
	})
}

// handleWorkers merges per-worker statistics across shards in id order.
func (f *Fabric) handleWorkers(w http.ResponseWriter, r *http.Request) {
	out := make([]server.WorkerStats, 0)
	for _, sh := range f.shards {
		out = append(out, sh.WorkerList()...)
		f.release(sh)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	server.WriteJSON(w, http.StatusOK, out)
}

// handleCosts sums the accumulated spend across shards, including wait pay
// accrued up to now for currently idle workers.
func (f *Fabric) handleCosts(w http.ResponseWriter, r *http.Request) {
	var acct metrics.Accounting
	for _, sh := range f.shards {
		acct = acct.Add(sh.AccruedCosts())
		f.release(sh) // AccruedCosts expires stale workers, which can orphan steals
	}
	server.WriteJSON(w, http.StatusOK, map[string]float64{
		"wait_pay_dollars":       acct.WaitPay.Dollars(),
		"work_pay_dollars":       acct.WorkPay.Dollars(),
		"terminated_pay_dollars": acct.TerminatedPay.Dollars(),
		"total_dollars":          acct.Total().Dollars(),
	})
}

// handleConsensus pools every answer on every shard into one vote graph
// and runs the requested estimator over it — a worker who disagrees with
// consensus on one shard is down-weighted on all of them.
func (f *Fabric) handleConsensus(w http.ResponseWriter, r *http.Request) {
	estimator := r.URL.Query().Get("estimator")
	if estimator == "" {
		estimator = "majority"
	}

	stride, classes, lastTask := 1, 2, 0
	for _, sh := range f.shards {
		mr, mc, lt := sh.Dims()
		if mr > stride {
			stride = mr
		}
		if mc > classes {
			classes = mc
		}
		if lt > lastTask {
			lastTask = lt
		}
	}
	var votes []quality.Vote
	var order []int
	records := make(map[int]int)
	for _, sh := range f.shards {
		votes = append(votes, sh.Votes(stride)...)
		o, rec := sh.TaskMeta()
		order = append(order, o...)
		for id, n := range rec {
			records[id] = n
		}
	}
	sort.Ints(order)
	seed := int64(lastTask)*1e6 + int64(len(votes))

	var labels map[int]int
	scores := map[int]float64{}
	switch estimator {
	case "majority":
		labels = quality.MajorityLabels(votes)
	case "em":
		res := quality.EstimateAccuracy(votes, classes, 20)
		labels = res.Labels
		for id, a := range res.Accuracies {
			scores[int(id)] = a
		}
	case "kos":
		if classes > 2 {
			writeErr(w, http.StatusBadRequest,
				fmt.Errorf("kos estimator requires binary tasks; server has %d classes", classes))
			return
		}
		res := quality.KOS(votes, 10, stats.NewRand(seed))
		labels = res.Labels
		for id, rel := range res.Reliability {
			scores[int(id)] = rel
		}
	default:
		writeErr(w, http.StatusBadRequest,
			errors.New("unknown estimator (want majority, em or kos)"))
		return
	}

	resp := server.ConsensusResponse{Estimator: estimator, Labels: make(map[int][]int, len(order))}
	for _, tid := range order {
		n := records[tid]
		out := make([]int, n)
		any := false
		for rec := 0; rec < n; rec++ {
			if l, ok := labels[tid*stride+rec]; ok {
				out[rec] = l
				any = true
			} else {
				out[rec] = -1
			}
		}
		if any {
			resp.Labels[tid] = out
		}
	}
	if estimator != "majority" {
		resp.WorkerScores = scores
	}
	var modelTasks []int
	for _, sh := range f.shards {
		modelTasks = append(modelTasks, sh.ModelTasks()...)
	}
	sort.Ints(modelTasks)
	resp.ModelTasks = modelTasks
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleHealthz is the liveness probe. With the journal engine enabled it
// also reports durability health (the response stays byte-identical to the
// historical single-pool one when persistence is off).
func (f *Fabric) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{
		"ok":        true,
		"role":      "primary",
		"uptime_ms": f.now().Sub(f.startedAt).Milliseconds(),
	}
	if f.persist.Load() != nil {
		resp["persist_ok"] = f.PersistErr() == nil
	}
	if rp := f.repl.Load(); rp != nil && rp.tracker.Attached() {
		resp["replication_lag_ms"] = f.replLagMS(rp)
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleMetricsz renders the fabric-wide metrics page (served at both
// /metrics and the /api/metricsz alias). Counters sum across shards;
// latency sketches are mergeable t-digests, so the fabric serves one true
// fabric-wide quantile summary per family — each HELP/TYPE header appears
// exactly once and no series carries a shard label. When the journal
// engine is attached, durability telemetry (commit lag, group-commit batch
// size, dirty age, retained-log size) is merged in the same way.
func (f *Fabric) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	shards := make([]server.ShardMetrics, 0, len(f.shards))
	for _, sh := range f.shards {
		shards = append(shards, sh.MetricsState())
		f.release(sh) // MetricsState expires stale workers, which can orphan steals
	}
	page := server.BuildMetricsPage(shards, f.obs, f.journalSnapshot())
	page.Hybrid = f.hybridSnapshot()
	page.Repl = f.replSnapshot()
	server.WriteMetricsPage(w, page)
}

// handleMetricsSketch serves the same fabric-wide page's t-digests in the
// binary sketch-export codec, for lossless off-box merging.
func (f *Fabric) handleMetricsSketch(w http.ResponseWriter, r *http.Request) {
	shards := make([]server.ShardMetrics, 0, len(f.shards))
	for _, sh := range f.shards {
		shards = append(shards, sh.MetricsState())
		f.release(sh) // MetricsState expires stale workers, which can orphan steals
	}
	page := server.BuildMetricsPage(shards, f.obs, f.journalSnapshot())
	server.WriteSketchExport(w, page)
}

// journalSnapshot merges per-store durability telemetry into one fabric
// view, or nil when the journal engine is detached.
func (f *Fabric) journalSnapshot() *server.JournalSnapshot {
	p := f.persist.Load()
	if p == nil {
		return nil
	}
	p.mu.Lock()
	stores := append([]*journal.Store(nil), p.stores...)
	p.mu.Unlock()
	js := &server.JournalSnapshot{
		CommitLag: sketch.New(sketch.DefaultCompression),
		BatchOps:  sketch.New(sketch.DefaultCompression),
	}
	for _, st := range stores {
		if st == nil {
			continue
		}
		js.CommitLag.Merge(st.CommitLagSnapshot())
		js.BatchOps.Merge(st.BatchSnapshot())
		if age := st.DirtyAge().Seconds(); age > js.DirtyAgeSeconds {
			js.DirtyAgeSeconds = age
		}
		js.RetainedRecords += uint64(st.RetainedRecords())
	}
	return js
}
