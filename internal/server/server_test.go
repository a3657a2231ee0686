package server

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// newTestServer serves one shard's protocol ops through RegisterCoreRoutes
// — the same shim the fabric mounts — and returns a client for them plus
// the shard itself. The aggregate views (status, costs, workers, snapshot,
// metrics) are read through the Shard accessors the fabric's handlers are
// built from; the endpoints themselves are tested in admin_test.go against
// a 1-shard fabric.
func newTestServer(t *testing.T, cfg Config) (*Client, *Shard) {
	t.Helper()
	sh := NewShard(cfg, 0, 1)
	mux := http.NewServeMux()
	RegisterCoreRoutes(mux, sh)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return NewClient(ts.URL), sh
}

func TestJoinFetchSubmitRoundTrip(t *testing.T) {
	c, _ := newTestServer(t, Config{})
	wid, err := c.Join("alice")
	if err != nil {
		t.Fatal(err)
	}
	if wid == 0 {
		t.Fatal("zero worker id")
	}
	// No tasks yet.
	if _, ok, err := c.FetchTask(wid); err != nil || ok {
		t.Fatalf("fetch before tasks: ok=%v err=%v", ok, err)
	}
	ids, err := c.SubmitTasks([]TaskSpec{
		{Records: []string{"tweet one", "tweet two"}, Classes: 3, Quorum: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("ids = %v", ids)
	}
	a, ok, err := c.FetchTask(wid)
	if err != nil || !ok {
		t.Fatalf("fetch: ok=%v err=%v", ok, err)
	}
	if a.TaskID != ids[0] || len(a.Records) != 2 || a.Classes != 3 {
		t.Fatalf("assignment = %+v", a)
	}
	accepted, terminated, err := c.Submit(wid, a.TaskID, []int{0, 2})
	if err != nil || !accepted || terminated {
		t.Fatalf("submit: accepted=%v terminated=%v err=%v", accepted, terminated, err)
	}
	st, err := c.Result(a.TaskID)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "complete" {
		t.Fatalf("state = %s", st.State)
	}
	if st.Consensus[0] != 0 || st.Consensus[1] != 2 {
		t.Fatalf("consensus = %v", st.Consensus)
	}
}

func TestRefetchRedeliversAssignment(t *testing.T) {
	c, _ := newTestServer(t, Config{})
	wid, _ := c.Join("w")
	c.SubmitTasks([]TaskSpec{{Records: []string{"r"}, Classes: 2}})
	a1, ok, _ := c.FetchTask(wid)
	if !ok {
		t.Fatal("no assignment")
	}
	a2, ok, _ := c.FetchTask(wid)
	if !ok || a2.TaskID != a1.TaskID {
		t.Fatalf("refetch returned %+v, want redelivery of %d", a2, a1.TaskID)
	}
}

func TestQuorumConsensus(t *testing.T) {
	c, _ := newTestServer(t, Config{})
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"x"}, Classes: 2, Quorum: 3}})
	votes := []int{1, 1, 0}
	for i, v := range votes {
		wid, _ := c.Join("w")
		a, ok, err := c.FetchTask(wid)
		if err != nil || !ok {
			t.Fatalf("vote %d: fetch failed", i)
		}
		accepted, terminated, err := c.Submit(wid, a.TaskID, []int{v})
		if err != nil || !accepted || terminated {
			t.Fatalf("vote %d rejected", i)
		}
	}
	st, _ := c.Result(ids[0])
	if st.State != "complete" || st.Answers != 3 {
		t.Fatalf("status = %+v", st)
	}
	if st.Consensus[0] != 1 {
		t.Fatalf("consensus = %v, want majority 1", st.Consensus)
	}
}

func TestStragglerDuplicationAndTermination(t *testing.T) {
	c, sh := newTestServer(t, Config{SpeculationLimit: 1})
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"x"}, Classes: 2}})

	slow, _ := c.Join("slow")
	fast, _ := c.Join("fast")
	// Slow worker takes the task...
	if _, ok, _ := c.FetchTask(slow); !ok {
		t.Fatal("slow got no task")
	}
	// ...fast worker gets a speculative duplicate of the same task.
	a, ok, _ := c.FetchTask(fast)
	if !ok || a.TaskID != ids[0] {
		t.Fatalf("fast got %+v, want duplicate of task %d", a, ids[0])
	}
	// Fast answers first and wins.
	if accepted, _, _ := c.Submit(fast, ids[0], []int{1}); !accepted {
		t.Fatal("fast answer rejected")
	}
	// Slow answers late: acknowledged but terminated.
	accepted, terminated, err := c.Submit(slow, ids[0], []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if accepted || !terminated {
		t.Fatalf("late submit: accepted=%v terminated=%v", accepted, terminated)
	}
	st, _ := c.Result(ids[0])
	if st.Consensus[0] != 1 {
		t.Fatalf("consensus = %v, want the winner's label", st.Consensus)
	}
	if n := sh.CountersNow().Terminated; n != 1 {
		t.Fatalf("terminated counter = %d", n)
	}
}

func TestSpeculationLimitRespected(t *testing.T) {
	c, _ := newTestServer(t, Config{SpeculationLimit: 1})
	c.SubmitTasks([]TaskSpec{{Records: []string{"x"}, Classes: 2}})
	w1, _ := c.Join("w1")
	w2, _ := c.Join("w2")
	w3, _ := c.Join("w3")
	if _, ok, _ := c.FetchTask(w1); !ok {
		t.Fatal("w1 idle")
	}
	if _, ok, _ := c.FetchTask(w2); !ok {
		t.Fatal("w2 should get the speculative duplicate")
	}
	// Cap reached (needed 1 + limit 1 = 2 active): w3 waits.
	if _, ok, _ := c.FetchTask(w3); ok {
		t.Fatal("w3 should be told to wait")
	}
}

func TestWorkerNeverDuplicatesOwnTask(t *testing.T) {
	c, _ := newTestServer(t, Config{})
	c.SubmitTasks([]TaskSpec{{Records: []string{"x"}, Classes: 2, Quorum: 2}})
	wid, _ := c.Join("w")
	a, ok, _ := c.FetchTask(wid)
	if !ok {
		t.Fatal("no task")
	}
	c.Submit(wid, a.TaskID, []int{0})
	// The task still needs one answer, but not from the same worker.
	if _, ok, _ := c.FetchTask(wid); ok {
		t.Fatal("worker offered a task it already answered")
	}
}

func TestWorkerExpiry(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, _ := newTestServer(t, Config{WorkerTimeout: time.Minute, Now: clock})
	c.SubmitTasks([]TaskSpec{{Records: []string{"x"}, Classes: 2}})
	w1, _ := c.Join("ghost")
	if _, ok, _ := c.FetchTask(w1); !ok {
		t.Fatal("no task")
	}
	// Ghost vanishes; 2 minutes pass.
	now = now.Add(2 * time.Minute)
	w2, _ := c.Join("live")
	a, ok, _ := c.FetchTask(w2)
	if !ok {
		t.Fatal("task not requeued after worker expiry")
	}
	if accepted, _, _ := c.Submit(w2, a.TaskID, []int{1}); !accepted {
		t.Fatal("requeued submit rejected")
	}
}

func TestValidationErrors(t *testing.T) {
	c, _ := newTestServer(t, Config{})
	if _, err := c.SubmitTasks(nil); err == nil {
		t.Fatal("empty task list accepted")
	}
	if _, err := c.SubmitTasks([]TaskSpec{{Records: nil}}); err == nil {
		t.Fatal("recordless task accepted")
	}
	if err := c.Heartbeat(999); err == nil {
		t.Fatal("heartbeat for unknown worker accepted")
	}
	wid, _ := c.Join("w")
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"a", "b"}, Classes: 2}})
	c.FetchTask(wid)
	if _, _, err := c.Submit(wid, ids[0], []int{1}); err == nil {
		t.Fatal("wrong label count accepted")
	}
	if _, _, err := c.Submit(wid, ids[0], []int{1, 5}); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, _, err := c.Submit(999, ids[0], []int{1, 0}); err == nil {
		t.Fatal("unknown worker submit accepted")
	}
	if _, _, err := c.Submit(wid, 999, []int{1, 0}); err == nil {
		t.Fatal("unknown task submit accepted")
	}
	if _, err := c.Result(999); err == nil {
		t.Fatal("unknown task result accepted")
	}
}

// TestSwarmIntegration drives a pool of concurrent worker goroutines against
// a batch of quorum tasks and checks that everything completes with sane
// consensus — the server-side analogue of the simulator's end-to-end runs.
func TestSwarmIntegration(t *testing.T) {
	c, sh := newTestServer(t, Config{SpeculationLimit: 1})
	const tasks, workers = 40, 8
	specs := make([]TaskSpec, tasks)
	for i := range specs {
		specs[i] = TaskSpec{Records: []string{"r1", "r2"}, Classes: 2, Quorum: 2}
	}
	ids, err := c.SubmitTasks(specs)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			wc := NewClient(c.BaseURL)
			wid, err := wc.Join("swarm")
			if err != nil {
				t.Error(err)
				return
			}
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, ok, err := wc.FetchTask(wid)
				if err != nil {
					t.Error(err)
					return
				}
				if !ok {
					time.Sleep(time.Millisecond)
					continue
				}
				labels := make([]int, len(a.Records))
				for i := range labels {
					labels[i] = (n + i) % 2
				}
				if _, _, err := wc.Submit(wid, a.TaskID, labels); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	deadline := time.After(10 * time.Second)
	for {
		complete := sh.CountersNow().Complete
		if complete == tasks {
			break
		}
		select {
		case <-deadline:
			close(stop)
			wg.Wait()
			t.Fatalf("only %d/%d tasks complete", complete, tasks)
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	for _, id := range ids {
		st, err := c.Result(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != "complete" || len(st.Consensus) != 2 {
			t.Fatalf("task %d: %+v", id, st)
		}
		for _, l := range st.Consensus {
			if l < 0 || l > 1 {
				t.Fatalf("task %d consensus out of range: %v", id, st.Consensus)
			}
		}
	}
}
