package server

import (
	"time"

	"github.com/clamshell/clamshell/internal/journal"
)

// Server-side pool maintenance: the live counterpart of the simulator's
// Maintainer. The server tracks each worker's empirical per-record latency;
// when a worker's mean is significantly above the configured threshold they
// are retired — their next fetch returns 410 Gone and their slot leaves the
// pool (they are not blacklisted, exactly as in the paper).

// WorkerStats is the per-worker view exposed by GET /api/workers.
type WorkerStats struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	Completed   int     `json:"completed"`
	MeanPerRec  float64 `json:"mean_per_record_seconds"`
	Working     bool    `json:"working"`
	JoinedAgoMS int64   `json:"joined_ago_ms"`
}

// observeLatency records a completed assignment's per-record latency for a
// worker and returns it. The caller records the value into the shard's
// latency sketch after releasing mu. Callers hold mu.
func (s *Shard) observeLatency(pw *poolWorker, records int, elapsed time.Duration) float64 {
	if records < 1 {
		records = 1
	}
	perRec := elapsed.Seconds() / float64(records)
	pw.latN++
	pw.latSum += perRec
	return perRec
}

// maintenanceCheck retires the worker if maintenance is enabled and their
// empirical mean is above the threshold with enough evidence. Callers hold
// mu. Returns true if the worker was retired.
//
//clamshell:locked callers hold mu
func (s *Shard) maintenanceCheck(pw *poolWorker) bool {
	if s.cfg.MaintenanceThreshold <= 0 || pw.latN < s.cfg.MaintenanceMinObs {
		return false
	}
	if pw.latSum/float64(pw.latN) <= s.cfg.MaintenanceThreshold.Seconds() {
		return false
	}
	pw.retired = true
	s.retired[pw.id] = true
	s.logOp(journal.Op{T: journal.OpRetire, Worker: pw.id})
	s.removeWorker(pw.id, "retire")
	s.retiredCount++
	return true
}
