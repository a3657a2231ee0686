package main

import (
	"fmt"
	"time"
)

// The traced pass: a separate, shorter run with client-side spans on,
// followed by the layer probes. It yields the per-layer metrics and the
// ledger.* reconciliation rows; the gated end-to-end metrics never come
// from it.

// tracedShare is how much of the run's measured seconds each of the traced
// pass's three phases gets (untraced saturate, traced saturate, traced
// paced): 3 s each at the default 16.
const tracedShare = 3.0 / 16

// ledger reconciles the traced saturate phase against the probes: the mean
// time a driver spent per sub-op, end to end, beside the sum of the self
// times of the layers on the workload's path, weighted by its op mix. The
// residual is whatever the layers measured in isolation do not explain —
// two drivers and the servers sharing two cores, scheduler wake-ups,
// queueing on the router's single node connection. A large residual is a
// finding to write down, not a failure.
func ledger(w workload, sat phaseOut, p map[string]float64) (e2e, layers float64) {
	ops := float64(max(sat.ops(), 1))
	// Each driver issues its sub-ops one after another, so drivers ÷ the
	// phase's sub-op rate is the end-to-end time of one.
	e2e = numDrivers * 1e6 / max(sat.opRate, 1e-9)

	enq := float64(sat.enqCalls)
	enqTasks := float64(sat.enqTasks)
	pairs := float64(sat.pairs)
	loneFetch := float64(sat.fetches - sat.pairs)
	loneSubmit := float64(sat.submits - sat.pairs)
	handouts := float64(sat.fetches - sat.emptyFetches)
	empties := float64(sat.emptyFetches)
	submits := float64(sat.submits)
	beats := float64(sat.heartbeats)

	var sum float64
	if w.idle {
		// 16-op frames: one batch round trip per frame, empty fetches below.
		frames := beats
		sum += frames * p["wire.batch16_rtt_us"]
		sum += empties * (p["server.shard_fetch_empty_us"] + p["fabric.fetch_empty_self_us"])
		sum += handouts*(p["server.shard_fetch_us"]+p["fabric.fetch_self_us"]) + submits*(p["server.shard_submit_us"]+p["fabric.submit_self_us"])
		sum += enqTasks * (p["server.shard_enqueue_us"] + p["fabric.enqueue_self_us"]) / probeBatch
		return e2e, sum / ops
	}

	// Transport between the drivers and whatever they talk to.
	if w.transport == "http" {
		sum += (pairs+loneFetch)*p["server.http_fetch_rtt_us"] + submits*p["server.http_submit_rtt_us"] + enq*p["server.http_enqueue_rtt_us"]
	} else {
		sum += pairs*p["wire.pair_rtt_us"] + loneFetch*p["wire.fetch_rtt_us"] + loneSubmit*p["wire.submit_rtt_us"]
		sum += enq * p["wire.enqueue_rtt_us"] * float64(w.enqBatch) / probeBatch
	}
	// The router hop: its own forwarding plus a second wire round trip per
	// forwarded op (it forwards every op, and every enqueued spec, alone).
	if w.routed {
		sum += (handouts+empties)*(p["fabric.router_fetch_self_us"]+p["wire.fetch_rtt_us"]) +
			submits*(p["fabric.router_submit_self_us"]+p["wire.submit_rtt_us"]) +
			enqTasks*(p["fabric.router_enqueue_self_us"]+p["wire.enqueue1_rtt_us"])
	}
	// The pool: fabric routing plus the shard's work under its lock.
	sum += handouts*(p["server.shard_fetch_us"]+p["fabric.fetch_self_us"]) +
		empties*(p["server.shard_fetch_empty_us"]+p["fabric.fetch_empty_self_us"]) +
		submits*(p["server.shard_submit_us"]+p["fabric.submit_self_us"]) +
		enqTasks*(p["server.shard_enqueue_us"]+p["fabric.enqueue_self_us"])/probeBatch
	// The journal: one append per enqueued task and per answer, two per
	// hand-out (assign, wait-pay).
	if w.durable {
		sum += (enqTasks + submits + 2*handouts) * p["journal.append_us_group"]
	}
	// The replication barrier: once per frame that journaled something.
	if w.repl {
		gated := handouts + submits + enq
		if w.routed {
			gated = handouts + submits + enqTasks
		}
		sum += gated * p["repl.barrier_wait_ms_p50"] * 1e3
	}
	sum += ops * p["gen.self_us_per_op"]
	return e2e, sum / ops
}

// runTraced is the traced pass for one workload. Its Metrics are the
// per-layer list.
func runTraced(spec benchSpec, w workload, seed int64, o runOpts, tracePath string) runResult {
	t0 := time.Now()
	res := runResult{Workload: w.name, Seed: seed, Traced: true, Extra: map[string]metricValue{},
		StreamHash: fmt.Sprintf("%016x", streamHash(seed, w))}
	s, err := setUp(w, seed, o)
	if err != nil {
		res.Problems = append(res.Problems, "set-up: "+err.Error())
		return res
	}
	secs := o.seconds * tracedShare
	tracers := make([]*tracer, 0, numDrivers+1)
	// traceOn starts (or, for a further phase, re-arms) the drivers' tracers.
	traceOn := func() {
		for _, d := range s.drivers {
			if d.tr == nil {
				d.tr = &tracer{}
				tracers = append(tracers, d.tr)
			}
			d.tr.budget = phaseSpanBudget
		}
	}

	// Untraced then traced closed loop on the same session: the drop in
	// throughput is what tracing costs the generator.
	var plain, sat, lat phaseOut
	if plain, err = s.saturate(o.warmOf(warmSaturate)/2, secs); err == nil {
		traceOn()
		if sat, err = s.saturate(o.warmOf(warmSaturate)/2, secs); err == nil {
			traceOn()
			lat, err = s.paced(o.warmOf(warmPaced), secs)
		}
	}
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	labels := plain.labels + sat.labels + lat.labels
	acked := sat.accepted + sat.terminated + lat.accepted + lat.terminated
	wasted := sat.terminated + lat.terminated
	clk := s.clk
	problems, _, diskBytes := s.finish()
	res.Problems = append(res.Problems, problems...)

	probeTr := &tracer{}
	tracers = append(tracers, probeTr)
	probes, err := runProbes(clk, probeTr, seed, o)
	if err != nil {
		res.Problems = append(res.Problems, "probes: "+err.Error())
	}

	// The probes' figures plus what the traced workload itself measured.
	if probes == nil {
		probes = map[string]float64{}
	}
	probes["server.wasted_answer_share"] = share(wasted, acked)
	probes["server.empty_fetch_share"] = share(lat.emptyFetches, lat.fetches)
	probes["journal.disk_bytes_per_label"] = float64(diskBytes) / float64(max(labels, 1))
	probes["gen.late_tail_ms"], _ = tailOf(sortedCopy(lat.lateMs))
	probes["gen.trace_overhead_share"] = 1 - sat.opRate/max(plain.opRate, 1)
	probes["consensus_tail_ms"], _ = tailOf(sortedCopy(lat.consMs.v))
	probes["handout_tail_us"], _ = tailOf(sortedCopy(lat.handoutUs.v))
	probes["submit_tail_us"], _ = tailOf(sortedCopy(lat.submitUs.v))
	e2e, layers := ledger(w, sat, probes)
	probes["ledger.e2e_us_per_op"] = e2e
	probes["ledger.layers_us_per_op"] = layers
	probes["ledger.residual_us_per_op"] = e2e - layers
	probes["ledger.residual_share"] = (e2e - layers) / e2e
	res.Metrics = spec.declared(probes)

	res.Extra["traced_labels_per_s"] = metricValue{sat.labelRate, "1/s"}
	res.Extra["untraced_labels_per_s"] = metricValue{plain.labelRate, "1/s"}
	latencyExtras(res.Extra, "consensus", "ms", lat.consMs.v)
	latencyExtras(res.Extra, "handout", "us", lat.handoutUs.v)
	latencyExtras(res.Extra, "submit", "us", lat.submitUs.v)

	n, err := writeTrace(tracePath, tracers)
	if err != nil {
		res.Problems = append(res.Problems, "writing spans: "+err.Error())
	}
	res.Extra["spans_written"] = metricValue{float64(n), "count"}
	dropped := 0
	for _, t := range tracers {
		dropped += t.dropped
	}
	res.Extra["spans_over_budget"] = metricValue{float64(dropped), "count"}

	res.Attempted = plain.ops() + sat.ops() + lat.ops()
	res.Failed = plain.failed + sat.failed + lat.failed + int64(len(res.Problems))
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.WallS = time.Since(t0).Seconds()
	return res
}
