package server

import (
	"math"
	"testing"
	"time"
)

func TestCostsWaitPayAccrues(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock})
	id, _ := c.Join("idler")
	// A live idler heartbeats; ten one-minute waits accrue in full.
	for i := 0; i < 10; i++ {
		now = now.Add(time.Minute)
		if err := c.Heartbeat(id); err != nil {
			t.Fatal(err)
		}
	}
	costs := s.AccruedCosts()
	// $.05/min x 10 min = $0.50.
	if math.Abs(costs.WaitPay.Dollars()-0.5) > 1e-6 {
		t.Fatalf("wait pay = %v, want 0.5", costs.WaitPay.Dollars())
	}
}

// A worker that stops heartbeating must stop billing wait pay: the
// /api/costs accrual (Shard.AccruedCosts) expires stale workers first, and a dead worker's wait span is
// clipped at the moment its liveness lapsed (last heartbeat + timeout) —
// not at whenever the expiry happened to be noticed.
func TestCostsDeadWorkerWaitPayCutoff(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock, WorkerTimeout: 2 * time.Minute})
	c.Join("ghost")
	// The ghost never heartbeats again. An hour later, the first costs call
	// must bill only the 2 minutes of provable liveness, not the hour.
	now = now.Add(time.Hour)
	if wait := s.AccruedCosts().WaitPay.Dollars(); math.Abs(wait-0.10) > 1e-6 {
		t.Fatalf("wait pay = %v, want 0.10 (join to liveness lapse only)", wait)
	}
	// The accrual is settled, not per-view: asking again later adds nothing.
	now = now.Add(time.Hour)
	if wait := s.AccruedCosts().WaitPay.Dollars(); math.Abs(wait-0.10) > 1e-6 {
		t.Fatalf("wait pay after second view = %v, want 0.10", wait)
	}
}

func TestCostsWorkAndTerminatedPay(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock, SpeculationLimit: 1})
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"a", "b", "c"}, Classes: 2}})

	w1, _ := c.Join("winner")
	w2, _ := c.Join("loser")
	c.FetchTask(w1)
	c.FetchTask(w2) // speculative duplicate
	c.Submit(w1, ids[0], []int{0, 1, 0})
	c.Submit(w2, ids[0], []int{1, 1, 1}) // terminated but paid

	costs := s.AccruedCosts()
	// 3 records at $.02 each, for both completed and terminated.
	if math.Abs(costs.WorkPay.Dollars()-0.06) > 1e-6 {
		t.Fatalf("work pay = %v, want 0.06", costs.WorkPay.Dollars())
	}
	if math.Abs(costs.TerminatedPay.Dollars()-0.06) > 1e-6 {
		t.Fatalf("terminated pay = %v, want 0.06", costs.TerminatedPay.Dollars())
	}
	if costs.Total().Dollars() < costs.WorkPay.Dollars()+costs.TerminatedPay.Dollars()-1e-9 {
		t.Fatal("total below components")
	}
}

func TestCostsWaitPausesWhileWorking(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock})
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"a"}, Classes: 2}})
	w, _ := c.Join("worker")
	now = now.Add(2 * time.Minute) // waits 2 min
	c.FetchTask(w)
	now = now.Add(30 * time.Minute) // works 30 min: NOT wait-paid
	c.Submit(w, ids[0], []int{0})
	now = now.Add(1 * time.Minute) // waits 1 min after
	// 3 minutes of waiting at $.05 = $0.15; plus $0.02 work pay.
	if wait := s.AccruedCosts().WaitPay.Dollars(); math.Abs(wait-0.15) > 1e-6 {
		t.Fatalf("wait pay = %v, want 0.15 (work time must not accrue)", wait)
	}
}

func TestCostsCustomRates(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	s := NewShard(Config{Now: clock, Costs: CostConfig{
		WaitPayPerMin: 10_000,  // $0.01/min
		RecordPay:     100_000, // $0.10/record
	}}, 0, 1)
	// Custom rates survive config normalization.
	if s.cfg.Costs.WaitPayPerMin.Dollars() != 0.01 || s.cfg.Costs.RecordPay.Dollars() != 0.10 {
		t.Fatalf("custom rates overwritten: %v %v", s.cfg.Costs.WaitPayPerMin, s.cfg.Costs.RecordPay)
	}
	// Zero rates take the defaults through the default-fill path.
	var cc CostConfig
	cc.fillDefaults()
	if cc.WaitPayPerMin.Dollars() != 0.05 || cc.RecordPay.Dollars() != 0.02 {
		t.Fatalf("defaults wrong: %v %v", cc.WaitPayPerMin, cc.RecordPay)
	}
}
