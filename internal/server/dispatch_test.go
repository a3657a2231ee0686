package server

import (
	"math/rand"
	"testing"
	"time"
)

// naiveCandidates is the pre-index linear scan over the full submission
// order — the executable specification the dispatch index must match:
// highest priority first, FIFO within a priority, skipping tasks the worker
// is assigned or has answered, partitioned into starved vs speculative
// exactly as dispatchStateOf classifies them. Callers hold mu.
func naiveCandidates(s *Shard, workerID int) (starved, speculative *workUnit) {
	for _, tid := range s.order {
		u := s.tasks[tid]
		if u.done || u.active[workerID] || s.answered(u, workerID) {
			continue
		}
		switch {
		case len(u.active) < u.needed():
			if starved == nil || u.spec.Priority > starved.spec.Priority {
				starved = u
			}
		case len(u.active) > 0 && len(u.active) < u.needed()+s.cfg.SpeculationLimit:
			if speculative == nil || u.spec.Priority > speculative.spec.Priority {
				speculative = u
			}
		}
	}
	return starved, speculative
}

func unitID(u *workUnit) int {
	if u == nil {
		return 0
	}
	return u.id
}

// checkDispatchMatchesNaive cross-checks the indexed pick against the naive
// scan for every joined worker, in both partitions.
func checkDispatchMatchesNaive(t *testing.T, s *Shard, step int) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	for wid := range s.workers {
		wantS, wantSp := naiveCandidates(s, wid)
		gotS := s.pickPart(dispatchStarved, wid)
		gotSp := s.pickPart(dispatchSpeculative, wid)
		if unitID(gotS) != unitID(wantS) {
			t.Fatalf("step %d worker %d: starved pick %d, naive scan %d",
				step, wid, unitID(gotS), unitID(wantS))
		}
		if unitID(gotSp) != unitID(wantSp) {
			t.Fatalf("step %d worker %d: speculative pick %d, naive scan %d",
				step, wid, unitID(gotSp), unitID(wantSp))
		}
	}
}

// TestDispatchIndexMatchesNaiveScan drives a shard through randomized
// enqueue/assign/steal/submit/replay/leave/expire/restore sequences and
// asserts after every operation that the indexed dispatch structure hands
// out exactly the task the historical linear scan would have.
func TestDispatchIndexMatchesNaiveScan(t *testing.T) {
	for trial := 0; trial < 30; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
		cfg := Config{
			SpeculationLimit: 1 + rng.Intn(2),
			WorkerTimeout:    30 * time.Second,
			Now:              func() time.Time { return now },
		}
		s := NewShard(cfg, 0, 1)
		var workers []int
		join := func() {
			workers = append(workers, s.Join("w"))
		}
		randWorker := func() int {
			if len(workers) == 0 {
				return 0
			}
			return workers[rng.Intn(len(workers))]
		}
		dropWorker := func(id int) {
			for i, w := range workers {
				if w == id {
					workers = append(workers[:i], workers[i+1:]...)
					return
				}
			}
		}
		join()
		join()

		for step := 0; step < 300; step++ {
			now = now.Add(time.Duration(rng.Intn(3)) * time.Second)
			switch rng.Intn(10) {
			case 0, 1:
				s.Enqueue(TaskSpec{
					Records:  []string{"r"},
					Classes:  2,
					Quorum:   1 + rng.Intn(2),
					Priority: rng.Intn(3),
				})
			case 2:
				join()
			case 3, 4:
				s.PickLocal(randWorker(), rng.Intn(2) == 0)
			case 5:
				// A steal: active is marked on this shard, the assignment
				// recorded (or rolled back) on the "home" shard — here the
				// same shard plays both roles, matching the fabric protocol.
				w := randWorker()
				if tid, _, ok := s.PickSteal(w, rng.Intn(2) == 0); ok {
					if !s.AssignStolen(w, tid) {
						s.ReleaseActive(tid, w)
					}
				}
			case 6:
				// Submit the worker's in-flight assignment; sometimes replay
				// it, which must change nothing.
				w := randWorker()
				s.mu.Lock()
				pw := s.workers[w]
				var tid, records int
				if pw != nil && pw.current != 0 {
					tid = pw.current
					records = len(s.tasks[tid].spec.Records)
				}
				s.mu.Unlock()
				if tid != 0 {
					labels := make([]int, records)
					if outcome, rec, _ := s.AcceptAnswer(tid, w, labels); outcome == SubmitAccepted || outcome == SubmitTerminated {
						s.FinishAssignment(w, tid, rec)
					}
					if rng.Intn(2) == 0 {
						if outcome, _, _ := s.AcceptAnswer(tid, w, labels); outcome != SubmitDuplicate && outcome != SubmitDuplicateTerminated {
							t.Fatalf("trial %d step %d: replayed submit outcome %v", trial, step, outcome)
						}
					}
				}
			case 7:
				w := randWorker()
				s.Leave(w)
				dropWorker(w)
			case 8:
				// Stale workers expire on the next maintenance pass.
				now = now.Add(time.Duration(rng.Intn(40)) * time.Second)
				s.CountersNow()
				s.mu.Lock()
				kept := workers[:0]
				for _, w := range workers {
					if _, ok := s.workers[w]; ok {
						kept = append(kept, w)
					}
				}
				workers = kept
				s.mu.Unlock()
			case 9:
				// Snapshot round trip: the rebuilt index must serve the same
				// order. Workers drop with the restore.
				s.ImportState(s.ExportState())
				workers = workers[:0]
				join()
				join()
			}
			checkDispatchMatchesNaive(t, s, step)
		}
	}
}

// A replayed POST /api/submit (client retry after a lost 200) must be
// re-acknowledged with the original response and change nothing: no second
// vote toward the quorum, no second payment, no inflated completion stats.
func TestSubmitReplayIdempotent(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock})
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"a", "b"}, Classes: 2, Quorum: 2}})
	w1, _ := c.Join("first")
	w2, _ := c.Join("second")

	if _, ok, _ := c.FetchTask(w1); !ok {
		t.Fatal("w1 got no task")
	}
	if acc, _, err := c.Submit(w1, ids[0], []int{0, 1}); err != nil || !acc {
		t.Fatalf("first submit: accepted=%v err=%v", acc, err)
	}
	base := s.AccruedCosts()

	// Replay before completion: same acknowledgement, nothing recounted.
	acc, term, err := c.Submit(w1, ids[0], []int{0, 1})
	if err != nil || !acc || term {
		t.Fatalf("replay: accepted=%v terminated=%v err=%v", acc, term, err)
	}
	if st, _ := c.Result(ids[0]); st.Answers != 1 {
		t.Fatalf("answers after replay = %d, want 1 (no double vote)", st.Answers)
	}
	if costs := s.AccruedCosts(); costs.WorkPay != base.WorkPay {
		t.Fatalf("work pay grew on replay: %v -> %v", base.WorkPay, costs.WorkPay)
	}
	// The replayed task must not be handed back to its voter either.
	if _, ok, _ := c.FetchTask(w1); ok {
		t.Fatal("worker re-offered a task it already answered")
	}

	// Complete the quorum, then replay both submissions against the done
	// task: still the original acknowledgements, no terminated pay.
	if _, ok, _ := c.FetchTask(w2); !ok {
		t.Fatal("w2 got no task")
	}
	if acc, _, _ := c.Submit(w2, ids[0], []int{1, 1}); !acc {
		t.Fatal("quorum submit rejected")
	}
	for _, w := range []int{w1, w2} {
		acc, term, err := c.Submit(w, ids[0], []int{0, 1})
		if err != nil || !acc || term {
			t.Fatalf("replay after completion (worker %d): accepted=%v terminated=%v err=%v",
				w, acc, term, err)
		}
	}
	if st, _ := c.Result(ids[0]); st.Answers != 2 {
		t.Fatalf("answers = %d, want 2", st.Answers)
	}
	costs := s.AccruedCosts()
	if costs.TerminatedPay != 0 {
		t.Fatalf("terminated pay = %v, want 0 (replays are not stragglers)", costs.TerminatedPay.Dollars())
	}
	if want := 2 * 2 * 0.02; costs.WorkPay.Dollars() != want {
		t.Fatalf("work pay = %v, want %v (two 2-record answers)", costs.WorkPay.Dollars(), want)
	}
	for _, w := range s.WorkerList() {
		if w.Completed != 1 {
			t.Fatalf("worker %d completed = %d, want 1 (replays must not inflate stats)",
				w.ID, w.Completed)
		}
	}
	if n := s.CountersNow().Terminated; n != 0 {
		t.Fatalf("terminated counter = %d, want 0", n)
	}
}

// A replayed straggler submission (the worker lost the duplicate race, got
// its terminated acknowledgement, and the response was lost) must be
// re-acknowledged without a second termination payment or counter bump.
func TestTerminatedReplayIdempotent(t *testing.T) {
	c, s := newTestServer(t, Config{SpeculationLimit: 1})
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"x"}, Classes: 2}})
	fast, _ := c.Join("fast")
	slow, _ := c.Join("slow")
	if _, ok, _ := c.FetchTask(slow); !ok {
		t.Fatal("slow got no task")
	}
	if _, ok, _ := c.FetchTask(fast); !ok {
		t.Fatal("fast got no duplicate")
	}
	if acc, _, _ := c.Submit(fast, ids[0], []int{1}); !acc {
		t.Fatal("fast answer rejected")
	}
	// Slow loses the race: paid and counted once...
	if acc, term, _ := c.Submit(slow, ids[0], []int{0}); acc || !term {
		t.Fatalf("late submit: accepted=%v terminated=%v", acc, term)
	}
	base := s.AccruedCosts()
	// ...and replays keep getting the same acknowledgement without paying.
	for i := 0; i < 3; i++ {
		if acc, term, err := c.Submit(slow, ids[0], []int{0}); err != nil || acc || !term {
			t.Fatalf("replay %d: accepted=%v terminated=%v err=%v", i, acc, term, err)
		}
	}
	if costs := s.AccruedCosts(); costs.TerminatedPay != base.TerminatedPay {
		t.Fatalf("terminated pay grew on replay: %v -> %v", base.TerminatedPay, costs.TerminatedPay)
	}
	if n := s.CountersNow().Terminated; n != 1 {
		t.Fatalf("terminated counter = %d, want 1", n)
	}
}

// intQuery must reject integers with trailing garbage instead of silently
// truncating "12abc" to 12.
func TestBadQueryParamsRejected(t *testing.T) {
	c, _ := newTestServer(t, Config{})
	wid, _ := c.Join("w")
	c.SubmitTasks([]TaskSpec{{Records: []string{"a"}, Classes: 2}})
	for _, path := range []string{
		"/api/task?worker_id=1abc",
		"/api/task?worker_id=",
		"/api/task",
		"/api/result?task_id=1x",
		"/api/result?task_id=0x1",
	} {
		r, err := c.HTTP.Get(c.BaseURL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != 400 {
			t.Errorf("GET %s: status %d, want 400", path, r.StatusCode)
		}
	}
	// Sanity: the plain form still works.
	if _, ok, err := c.FetchTask(wid); err != nil || !ok {
		t.Fatalf("well-formed fetch broken: ok=%v err=%v", ok, err)
	}
}
