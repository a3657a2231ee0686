package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"github.com/clamshell/clamshell/internal/sketch"
)

// The Prometheus exposition renderer. The fabric builds a MetricsPage —
// per-shard state merged via the t-digest sketches — and renders it here
// for both scrape paths (/metrics and the back-compat /api/metricsz alias)
// and for the binary /metrics/sketch export, so they cannot drift. Latency
// quantiles come from mergeable t-digest sketches over per-record
// round-trip latencies — the live measurement a crowd query optimizer needs
// to predict batch completion times (the paper's predictability argument,
// §4.1). Every family's HELP/TYPE header is emitted exactly once.

// summaryQs is the quantile set every latency summary exposes.
var summaryQs = []float64{0.5, 0.95, 0.99}

// BacklogDepth is one priority bucket's pending-task depth.
type BacklogDepth struct {
	Priority int
	Depth    int
}

// JournalSnapshot is the durability plane's contribution to the page
// (present only when a journal engine is attached).
type JournalSnapshot struct {
	CommitLag       *sketch.TDigest // seconds from first buffered op to fsync
	BatchOps        *sketch.TDigest // ops per group-commit batch
	DirtyAgeSeconds float64         // age of the oldest un-synced op right now
	RetainedRecords uint64          // records in the retained tally logs
}

// ReplSnapshot is the replication plane's contribution to the page
// (present only on a primary with journal shipping configured).
type ReplSnapshot struct {
	FollowerAttached bool    // a follower has pulled at least once
	LagMS            float64 // ms since the follower last matched the durable frontier
	LagBytes         float64 // durable bytes the follower has not yet acknowledged
	ShippedBytes     uint64  // total journal bytes shipped to followers
	SyncDegraded     uint64  // mutating acks released by barrier timeout, not follower durability
}

// ShardMetrics is one shard's contribution to the fabric-wide page.
type ShardMetrics struct {
	Counters    Counters
	CostDollars float64
	PerRecord   *sketch.TDigest
	Handout     *sketch.TDigest
	Backlog     []BacklogDepth
}

// HybridSnapshot is the hybrid learning plane's contribution to the page
// (present only when the plane is attached). Counts come from the plane's
// event stream; Accuracy is the shadow retrainer's moving agreement with
// human consensus, meaningful only once AccuracyKnown.
type HybridSnapshot struct {
	HumanLabels   uint64  // tasks finalized by human quorum
	ModelLabels   uint64  // tasks finalized by the model
	Reprioritized uint64  // pending tasks re-bucketed by uncertainty
	Pending       int     // feature-carrying tasks awaiting a decision
	Accuracy      float64 // shadow model agreement with human consensus
	AccuracyKnown bool
}

// MetricsPage is everything a scrape renders: merged shard state plus the
// transport observation plane and the optional journal snapshot.
type MetricsPage struct {
	Counters    Counters
	CostDollars float64
	PerRecord   *sketch.TDigest
	Handout     *sketch.TDigest
	Backlog     []BacklogDepth
	Obs         *Obs
	Journal     *JournalSnapshot
	Hybrid      *HybridSnapshot
	Repl        *ReplSnapshot
}

// BuildMetricsPage merges per-shard metrics into one fabric-wide page:
// counters sum, sketches merge (the whole point of the t-digest plane),
// backlog depths sum per priority.
func BuildMetricsPage(shards []ShardMetrics, obs *Obs, j *JournalSnapshot) *MetricsPage {
	p := &MetricsPage{
		PerRecord: sketch.New(sketch.DefaultCompression),
		Handout:   sketch.New(sketch.DefaultCompression),
		Obs:       obs,
		Journal:   j,
	}
	depth := map[int]int{}
	for _, sm := range shards {
		c := sm.Counters
		p.Counters.Tasks += c.Tasks
		p.Counters.Complete += c.Complete
		p.Counters.Workers += c.Workers
		p.Counters.Idle += c.Idle
		p.Counters.Terminated += c.Terminated
		p.Counters.Retired += c.Retired
		p.Counters.Expired += c.Expired
		p.Counters.TalliesAged += c.TalliesAged
		p.Counters.AutoFinalized += c.AutoFinalized
		p.CostDollars += sm.CostDollars
		p.PerRecord.Merge(sm.PerRecord)
		p.Handout.Merge(sm.Handout)
		for _, b := range sm.Backlog {
			depth[b.Priority] += b.Depth
		}
	}
	prios := make([]int, 0, len(depth))
	for prio := range depth {
		prios = append(prios, prio)
	}
	sort.Ints(prios)
	for _, prio := range prios {
		p.Backlog = append(p.Backlog, BacklogDepth{Priority: prio, Depth: depth[prio]})
	}
	return p
}

// WriteMetricsPage renders a metrics page with the exposition content type.
func WriteMetricsPage(w http.ResponseWriter, p *MetricsPage) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	w.Write(p.RenderPrometheus())
}

// RenderPrometheus renders the page in the text exposition format (0.0.4).
func (p *MetricsPage) RenderPrometheus() []byte {
	var b strings.Builder
	header := func(name, help, typ string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	gauge := func(name, help string, v float64) {
		header(name, help, "gauge")
		fmt.Fprintf(&b, "%s %g\n", name, v)
	}
	// summarySeries emits one summary's sample lines; labels is the
	// rendered label set without quantile (empty for an unlabeled family).
	summarySeries := func(name, labels string, d *sketch.TDigest) {
		sep := ""
		if labels != "" {
			sep = ","
		}
		for _, q := range summaryQs {
			fmt.Fprintf(&b, "%s{%s%squantile=%q} %g\n", name, labels, sep, fmt.Sprintf("%g", q), d.Quantile(q))
		}
		var suffix string
		if labels != "" {
			suffix = "{" + labels + "}"
		}
		fmt.Fprintf(&b, "%s_sum%s %g\n", name, suffix, d.Sum())
		fmt.Fprintf(&b, "%s_count%s %d\n", name, suffix, d.Count())
	}

	c := p.Counters
	gauge("clamshell_tasks_total", "Tasks submitted.", float64(c.Tasks))
	gauge("clamshell_tasks_complete", "Tasks with a full quorum of answers.", float64(c.Complete))
	gauge("clamshell_workers", "Workers currently in the retainer pool.", float64(c.Workers))
	gauge("clamshell_workers_idle", "Pool workers waiting for work.", float64(c.Idle))
	gauge("clamshell_terminated_total", "Straggler submissions discarded (still paid).", float64(c.Terminated))
	gauge("clamshell_retired_total", "Workers retired by pool maintenance.", float64(c.Retired))
	gauge("clamshell_cost_total_dollars", "Total spend.", p.CostDollars)

	header("clamshell_latency_per_record_seconds",
		"Fabric-wide per-record round-trip latency (merged t-digest).", "summary")
	summarySeries("clamshell_latency_per_record_seconds", "", p.PerRecord)

	header("clamshell_handout_wait_seconds",
		"Time tasks wait in the dispatch index before hand-out (merged t-digest).", "summary")
	summarySeries("clamshell_handout_wait_seconds", "", p.Handout)

	header("clamshell_backlog_depth", "Pending tasks per priority bucket.", "gauge")
	for _, d := range p.Backlog {
		fmt.Fprintf(&b, "clamshell_backlog_depth{priority=\"%d\"} %d\n", d.Priority, d.Depth)
	}

	header("clamshell_expired_workers_total", "Workers expired for missing heartbeats.", "counter")
	fmt.Fprintf(&b, "clamshell_expired_workers_total %d\n", c.Expired)
	header("clamshell_tallies_aged_total",
		"Retained vote tallies aged into count-only aggregates.", "counter")
	fmt.Fprintf(&b, "clamshell_tallies_aged_total %d\n", c.TalliesAged)
	header("clamshell_hybrid_autofinalized_total",
		"Tasks finalized by the hybrid plane's model instead of a human quorum.", "counter")
	fmt.Fprintf(&b, "clamshell_hybrid_autofinalized_total %d\n", c.AutoFinalized)

	if h := p.Hybrid; h != nil {
		header("clamshell_hybrid_labels_total",
			"Finalized tasks by label source (human quorum vs model).", "counter")
		fmt.Fprintf(&b, "clamshell_hybrid_labels_total{source=\"human\"} %d\n", h.HumanLabels)
		fmt.Fprintf(&b, "clamshell_hybrid_labels_total{source=\"model\"} %d\n", h.ModelLabels)
		header("clamshell_hybrid_reprioritized_total",
			"Pending tasks re-bucketed by model uncertainty.", "counter")
		fmt.Fprintf(&b, "clamshell_hybrid_reprioritized_total %d\n", h.Reprioritized)
		gauge("clamshell_hybrid_pending_candidates",
			"Feature-carrying pending tasks awaiting a model decision.", float64(h.Pending))
		if h.AccuracyKnown {
			gauge("clamshell_hybrid_model_accuracy",
				"Shadow model agreement with human consensus (moving rate).", h.Accuracy)
		}
	}

	if o := p.Obs; o != nil {
		header("clamshell_steals_total", "Tasks handed out across shards by work stealing.", "counter")
		fmt.Fprintf(&b, "clamshell_steals_total %d\n", o.Steals.Load())

		transports := []struct {
			name string
			ts   *TransportStats
		}{{"http", &o.HTTP}, {"wire", &o.Wire}}

		header("clamshell_ops_total", "Core operations served, by transport and op.", "counter")
		for _, tr := range transports {
			for op := Op(0); op < NumOps; op++ {
				if n := tr.ts.Count(op); n > 0 {
					fmt.Fprintf(&b, "clamshell_ops_total{transport=%q,op=%q} %d\n", tr.name, op, n)
				}
			}
		}

		header("clamshell_op_latency_seconds",
			"Server-side service time per core operation (merged t-digest).", "summary")
		for _, tr := range transports {
			for op := Op(0); op < NumOps; op++ {
				if tr.ts.Count(op) == 0 {
					continue
				}
				labels := fmt.Sprintf("transport=%q,op=%q", tr.name, op)
				summarySeries("clamshell_op_latency_seconds", labels, tr.ts.Snapshot(op))
			}
		}

		header("clamshell_wire_decode_seconds",
			"Wire-protocol frame decode time (merged t-digest).", "summary")
		summarySeries("clamshell_wire_decode_seconds", "", o.WireDecode.Snapshot())

		if conns := o.ConnSnapshot(); len(conns) > 0 {
			header("clamshell_wire_conn_ops_total",
				"Wire ops served per connection, by remote address.", "counter")
			for _, cc := range conns {
				fmt.Fprintf(&b, "clamshell_wire_conn_ops_total{remote=%q} %d\n", cc.Remote, cc.Ops)
			}
			header("clamshell_wire_conn_decode_errors_total",
				"Wire frames rejected by the strict decoder, per connection.", "counter")
			for _, cc := range conns {
				fmt.Fprintf(&b, "clamshell_wire_conn_decode_errors_total{remote=%q} %d\n", cc.Remote, cc.DecodeErrors)
			}
			header("clamshell_wire_throttled_total",
				"Wire ops refused by the per-connection rate limit, per remote.", "counter")
			for _, cc := range conns {
				fmt.Fprintf(&b, "clamshell_wire_throttled_total{remote=%q} %d\n", cc.Remote, cc.Throttled)
			}
		}
	}

	if j := p.Journal; j != nil {
		header("clamshell_journal_commit_lag_seconds",
			"Time from first buffered op to its durable fsync (merged t-digest).", "summary")
		summarySeries("clamshell_journal_commit_lag_seconds", "", j.CommitLag)
		header("clamshell_journal_batch_ops",
			"Ops made durable per group-commit batch (merged t-digest).", "summary")
		summarySeries("clamshell_journal_batch_ops", "", j.BatchOps)
		gauge("clamshell_journal_dirty_age_seconds",
			"Age of the oldest journaled op not yet fsynced.", j.DirtyAgeSeconds)
		gauge("clamshell_journal_retained_records",
			"Records in the retained tally logs (compaction bound trigger).", float64(j.RetainedRecords))
	}

	if rp := p.Repl; rp != nil {
		attached := 0.0
		if rp.FollowerAttached {
			attached = 1
		}
		gauge("clamshell_repl_follower_attached",
			"Whether a journal-shipping follower is currently attached.", attached)
		gauge("clamshell_repl_lag_ms",
			"Milliseconds since the follower last matched the primary's durable frontier.", rp.LagMS)
		gauge("clamshell_repl_lag_bytes",
			"Durable journal bytes not yet acknowledged by the follower.", rp.LagBytes)
		header("clamshell_repl_shipped_bytes_total",
			"Journal bytes shipped to followers.", "counter")
		fmt.Fprintf(&b, "clamshell_repl_shipped_bytes_total %d\n", rp.ShippedBytes)
		header("clamshell_repl_sync_degraded_total",
			"Mutating acks released by barrier timeout instead of follower durability.", "counter")
		fmt.Fprintf(&b, "clamshell_repl_sync_degraded_total %d\n", rp.SyncDegraded)
	}

	return []byte(b.String())
}

// FollowerMetrics is the journal-shipping follower's scrape surface. The
// attachment and lag families mirror the primary's page (the same series
// seen from the other end of the link); the pull counters are follower-only.
type FollowerMetrics struct {
	Attached    bool    // at least one pull has succeeded
	LagMS       float64 // ms since the last completed pull
	LagBytes    float64 // primary-reported durable bytes not yet mirrored
	PulledBytes uint64  // journal payload bytes mirrored so far
	Bootstraps  uint64  // full re-seeds from a primary snapshot
}

// Render appends the follower families to a metrics page under build.
func (fm FollowerMetrics) Render(b *strings.Builder) {
	header := func(name, help, typ string) {
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	attached := 0
	if fm.Attached {
		attached = 1
	}
	fmt.Fprintf(b, "clamshell_repl_follower_attached %d\n", attached)
	fmt.Fprintf(b, "clamshell_repl_lag_ms %g\n", fm.LagMS)
	fmt.Fprintf(b, "clamshell_repl_lag_bytes %g\n", fm.LagBytes)
	header("clamshell_repl_pulled_bytes_total",
		"Journal bytes pulled from the primary into the local mirror.", "counter")
	fmt.Fprintf(b, "clamshell_repl_pulled_bytes_total %d\n", fm.PulledBytes)
	header("clamshell_repl_bootstraps_total",
		"Full mirror re-seeds from a primary snapshot (initial attach, rotation, reset).", "counter")
	fmt.Fprintf(b, "clamshell_repl_bootstraps_total %d\n", fm.Bootstraps)
}
