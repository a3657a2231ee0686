package server

import (
	"time"

	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/metrics"
)

// accountingT aliases metrics.Accounting (see Shard.costs).
type accountingT = metrics.Accounting

// Live-server cost accounting, mirroring the simulator's: retained workers
// accrue wait pay while idle, record pay on completed work, and terminated
// (straggled) submissions are still paid.

// CostConfig sets the live pay rates. Zero values select the paper's
// defaults ($0.05/min wait, $0.02/record).
type CostConfig struct {
	WaitPayPerMin metrics.Cost
	RecordPay     metrics.Cost
}

func (c *CostConfig) fillDefaults() {
	if c.WaitPayPerMin == 0 {
		c.WaitPayPerMin = metrics.Cents(5)
	}
	if c.RecordPay == 0 {
		c.RecordPay = metrics.Cents(2)
	}
}

// settleWait accrues wait pay for a worker's idle span ending now. Callers
// hold mu. Wait starts at join and restarts at each submit; fetching a task
// ends the waiting span.
//
//clamshell:locked callers hold mu
func (s *Shard) settleWait(pw *poolWorker) {
	now := s.cfg.Now()
	if !pw.waitStart.IsZero() && now.After(pw.waitStart) {
		pay := metrics.PerMinute(s.cfg.Costs.WaitPayPerMin, now.Sub(pw.waitStart))
		s.costs.WaitPay += pay
		if pay != 0 {
			s.logOp(journal.Op{T: journal.OpWaitPay, Worker: pw.id, Pay: int64(pay)})
		}
	}
	pw.waitStart = time.Time{}
}

// startWait begins an idle span for the worker. Callers hold mu.
func (s *Shard) startWait(pw *poolWorker) {
	pw.waitStart = s.cfg.Now()
}

// payWork credits record pay for a submission (terminated submissions are
// paid under TerminatedPay) and returns the amount, which the caller
// journals on its answer op so replay reproduces the ledger bit-exactly.
// Callers hold mu.
func (s *Shard) payWork(records int, terminated bool) metrics.Cost {
	amount := s.cfg.Costs.RecordPay * metrics.Cost(records)
	if terminated {
		s.costs.TerminatedPay += amount
	} else {
		s.costs.WorkPay += amount
	}
	return amount
}
