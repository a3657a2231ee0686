package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Fixed shape of the load: two driver goroutines with one client
// connection each, 8 logical workers multiplexed on each (16 in all).
const (
	numDrivers       = 2
	workersPerDriver = 8
	numWorkers       = numDrivers * workersPerDriver

	// backlogTasks is the standing backlog every topology carries.
	backlogTasks = 20000

	// idleWorkers is idle_pool's joined pool (half per connection).
	idleWorkers = 512
	// idleFrameFetches + 1 heartbeat make idle_pool's 16-op frame.
	idleFrameFetches = 15
	// workerBackoff is a polling worker's pause after a round in which
	// nothing progressed (clamshell-workers does the same).
	workerBackoff = 200 * time.Microsecond
)

// workload fixes one topology and its traffic constants. The window and
// batch sizes are scaled to the path's speed: routed_repl pays one
// replication barrier (tens of ms) per forwarded op, so the windows that
// keep the in-memory paths busy would spend its whole phase enqueuing.
type workload struct {
	name      string
	transport string // "wire" or "http": what the measured clients speak
	shards    int
	durable   bool // OpenPersist{Fsync: group, Retention: 2s, CompactInterval: 2s}
	repl      bool // EnableReplication + a live follower gating mutating acks
	routed    bool // clients reach the node through a fabric.Router
	idle      bool // idle_pool's polling driver instead of the label phases

	window     int // saturate: tasks each driver keeps outstanding
	enqBatch   int // saturate: SubmitTasks batch size
	pacedBatch int // paced: tasks per scheduled enqueue
	// pacedEvery is the paced requester's schedule, set to ≈25–30 % of the
	// saturate-phase task rate measured on the seed commit (README ledger).
	pacedEvery time.Duration

	quorum                 int
	minRecords, maxRecords int
}

var workloads = []workload{
	{name: "wire_mem", transport: "wire", shards: 4,
		window: 200, enqBatch: 25, pacedBatch: 5, pacedEvery: 700 * time.Microsecond,
		quorum: labelQuorum, minRecords: 1, maxRecords: 5},
	{name: "http_mem", transport: "http", shards: 4,
		window: 200, enqBatch: 25, pacedBatch: 5, pacedEvery: 3300 * time.Microsecond,
		quorum: labelQuorum, minRecords: 1, maxRecords: 5},
	{name: "wire_durable", transport: "wire", shards: 4, durable: true,
		window: 200, enqBatch: 25, pacedBatch: 5, pacedEvery: 1500 * time.Microsecond,
		quorum: labelQuorum, minRecords: 1, maxRecords: 5},
	{name: "routed_repl", transport: "wire", shards: 2, durable: true, repl: true, routed: true,
		window: 4, enqBatch: 2, pacedBatch: 1, pacedEvery: 400 * time.Millisecond,
		quorum: labelQuorum, minRecords: 3, maxRecords: 3},
	{name: "idle_pool", transport: "wire", shards: 4, idle: true,
		pacedBatch: 1, pacedEvery: 10 * time.Millisecond,
		quorum: 1, minRecords: 1, maxRecords: 5},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricSpec is one metric's declaration in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions and regression bounds are declared. The harness reads it to
// know what to emit and what -compare may tolerate.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the working directory (a checkout
// root, where the driver runs) or its parent (bench/, where go test runs).
func loadSpec() (benchSpec, error) {
	var spec benchSpec
	var data []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return spec, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("decoding BENCHMARK.json: %w", err)
	}
	if len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		return spec, fmt.Errorf("BENCHMARK.json declares no metrics")
	}
	return spec, nil
}

// declared attaches to each value the unit BENCHMARK.json declares for its
// name (the one place units are written down); a name it does not declare
// keeps an empty unit and is reported by checkNames.
func (s benchSpec) declared(values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(values))
	for name, v := range values {
		m, _ := s.find(name)
		out[name] = metricValue{v, m.Unit}
	}
	return out
}

func (s benchSpec) find(name string) (metricSpec, bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range s.PerLayer {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}
