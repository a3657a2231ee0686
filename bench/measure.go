package main

import (
	"fmt"
	"time"
)

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	Traced    bool   `json:"traced"`
	Correct   bool   `json:"correct"`
	Attempted int64  `json:"attempted"`
	Failed    int64  `json:"failed"`
	// Metrics are the gated end-to-end metrics (untraced run) or the
	// per-layer metrics (traced run), exactly as BENCHMARK.json lists them.
	Metrics map[string]metricValue `json:"metrics"`
	// Extra are further measurements of the same run that carry no bound:
	// tails with their quantile, sample counts, shares.
	Extra    map[string]metricValue `json:"extra,omitempty"`
	Problems []string               `json:"problems,omitempty"`
	// StreamHash fingerprints the inputs generated from Seed.
	StreamHash string  `json:"stream_hash"`
	WallS      float64 `json:"wall_s"`
}

// runOpts are the knobs tests shorten; the command uses the defaults.
type runOpts struct {
	seconds float64 // measured seconds of the run (BENCHMARK.json run_seconds)
	setups  int     // how many times to set up (median reported)
	// scale shrinks everything that is not a measured phase — warm-ups, the
	// standing backlog, the probes' call counts — so the smoke test fits in
	// seconds. 1 is the benchmark as documented.
	scale float64
}

func defaultOpts(seconds float64) runOpts {
	return runOpts{seconds: seconds, setups: setupRepeats, scale: 1}
}

func (o runOpts) warmOf(d time.Duration) time.Duration {
	return time.Duration(float64(d) * o.scale)
}

func (o runOpts) backlog() int { return o.scaled(backlogTasks) }

// scaled shrinks a count by o.scale, never below 1.
func (o runOpts) scaled(n int) int { return max(1, int(float64(n)*o.scale)) }

// satSeconds is the closed-loop phase's share of the measured time: half,
// in whole seconds when there are any to split (its rate estimator works
// on one-second windows).
func (o runOpts) satSeconds() float64 {
	if o.seconds < 2 {
		return o.seconds / 2
	}
	return float64(int(o.seconds+1) / 2)
}

// setUpMedian sets up o.setups times, tearing all but the last down again,
// and returns the last session with the median set-up time.
func setUpMedian(w workload, seed int64, o runOpts) (*session, float64, error) {
	var times []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := setUp(w, seed, o)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == o.setups-1 {
			return s, median(times), nil
		}
		if err := s.tearDown(); err != nil {
			return nil, 0, fmt.Errorf("tear-down between set-ups: %w", err)
		}
	}
}

// latencyExtras adds a latency series' tail (with the quantile the sample
// count supports) and its count to extra.
func latencyExtras(extra map[string]metricValue, name, unit string, xs []float64) {
	sorted := sortedCopy(xs)
	tail, q := tailOf(sorted)
	extra[name+"_tail_"+unit] = metricValue{tail, unit}
	extra[name+"_tail_q"] = metricValue{q, "quantile"}
	extra[name+"_plain_p50_"+unit] = metricValue{p50(xs), unit}
	extra[name+"_samples"] = metricValue{float64(len(xs)), "count"}
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// runPhases runs the gated run's two timed phases on s: the closed loop
// (throughput, CPU, allocations) and the paced one (latencies).
func runPhases(s *session, o runOpts) (sat, lat phaseOut, err error) {
	if sat, err = s.saturate(o.warmOf(warmSaturate), o.satSeconds()); err != nil {
		return sat, lat, err
	}
	lat, err = s.paced(o.warmOf(warmPaced), o.seconds-o.satSeconds())
	return sat, lat, err
}

// runUntraced is the gated run: set-up (median of several), the timed
// phases with tracing off, verification. Its Metrics are the end-to-end
// list.
func runUntraced(spec benchSpec, w workload, seed int64, o runOpts) runResult {
	t0 := time.Now()
	res := runResult{Workload: w.name, Seed: seed, Extra: map[string]metricValue{},
		StreamHash: fmt.Sprintf("%016x", streamHash(seed, w))}
	s, setupS, err := setUpMedian(w, seed, o)
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
		return res
	}
	sat, lat, err := runPhases(s, o)
	if err != nil {
		res.Problems = append(res.Problems, err.Error())
	}
	problems, heapPerTask, _ := s.finish()
	res.Problems = append(res.Problems, problems...)

	ops := float64(max(sat.ops(), 1))
	res.Metrics = spec.declared(map[string]float64{
		"setup_s":             setupS,
		"labels_per_s":        sat.labelRate,
		"ops_per_s":           sat.opRate,
		"cpu_us_per_op":       float64(sat.cpuNs) / 1e3 / ops,
		"allocs_per_op":       float64(sat.mallocs) / ops,
		"alloc_bytes_per_op":  float64(sat.bytes) / ops,
		"consensus_p50_ms":    lat.consMs.typical(),
		"handout_p50_us":      lat.handoutUs.typical(),
		"submit_p50_us":       lat.submitUs.typical(),
		"heap_bytes_per_task": heapPerTask,
	})

	latencyExtras(res.Extra, "consensus", "ms", lat.consMs.v)
	latencyExtras(res.Extra, "handout", "us", lat.handoutUs.v)
	latencyExtras(res.Extra, "submit", "us", lat.submitUs.v)
	latencyExtras(res.Extra, "gen_late", "ms", lat.lateMs)
	res.Extra["saturate_tasks_per_s"] = metricValue{float64(sat.enqTasks) / sat.seconds, "1/s"}
	res.Extra["wasted_answer_share"] = metricValue{share(sat.terminated+lat.terminated, sat.accepted+sat.terminated+lat.accepted+lat.terminated), "share"}
	res.Extra["empty_fetch_share"] = metricValue{share(lat.emptyFetches, lat.fetches), "share"}
	res.Extra["paced_tasks_per_s"] = metricValue{float64(lat.enqTasks) / lat.seconds, "1/s"}

	res.Attempted = sat.ops() + lat.ops()
	res.Failed = sat.failed + lat.failed + int64(len(res.Problems))
	res.Extra["failed_op_share"] = metricValue{share(res.Failed, max(res.Attempted, 1)), "share"}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	res.WallS = time.Since(t0).Seconds()
	return res
}
