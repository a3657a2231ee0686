package server

import (
	"fmt"
	"net/http"
	"sort"
	"testing"
	"time"
)

func TestWorkerStatsEndpoint(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock})
	w1, _ := c.Join("alice")
	c.Join("bob")
	c.SubmitTasks([]TaskSpec{{Records: []string{"a", "b"}, Classes: 2}})
	a, _, _ := c.FetchTask(w1)
	now = now.Add(6 * time.Second)
	c.Submit(w1, a.TaskID, []int{0, 1})

	ws := s.WorkerList()
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	if len(ws) != 2 {
		t.Fatalf("workers = %d", len(ws))
	}
	if ws[0].Name != "alice" || ws[0].Completed != 1 {
		t.Fatalf("alice stats = %+v", ws[0])
	}
	// 6 seconds over 2 records = 3 s/record.
	if ws[0].MeanPerRec < 2.9 || ws[0].MeanPerRec > 3.1 {
		t.Fatalf("mean per record = %v", ws[0].MeanPerRec)
	}
	if ws[1].Completed != 0 || ws[1].MeanPerRec != 0 {
		t.Fatalf("bob stats = %+v", ws[1])
	}
}

func TestServerMaintenanceRetiresSlowWorker(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{
		Now:                  clock,
		MaintenanceThreshold: 4 * time.Second,
		MaintenanceMinObs:    3,
	})
	slow, _ := c.Join("slow")
	specs := make([]TaskSpec, 6)
	for i := range specs {
		specs[i] = TaskSpec{Records: []string{"r"}, Classes: 2}
	}
	c.SubmitTasks(specs)

	// Three completions at 10 s/record: after the third, retirement.
	for i := 0; i < 3; i++ {
		a, ok, err := c.FetchTask(slow)
		if err != nil || !ok {
			t.Fatalf("fetch %d failed: %v", i, err)
		}
		now = now.Add(10 * time.Second)
		if _, _, err := c.Submit(slow, a.TaskID, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	// The retired worker's next fetch is 410 Gone.
	r, err := c.HTTP.Get(fmt.Sprintf("%s/api/task?worker_id=%d", c.BaseURL, slow))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusGone {
		t.Fatalf("retired fetch status = %d, want 410", r.StatusCode)
	}
	st := s.CountersNow()
	if st.Retired != 1 {
		t.Fatalf("retired counter = %d", st.Retired)
	}
	if st.Workers != 0 {
		t.Fatalf("retired worker still in pool: %d", st.Workers)
	}
}

func TestServerMaintenanceKeepsFastWorker(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{
		Now:                  clock,
		MaintenanceThreshold: 4 * time.Second,
	})
	fast, _ := c.Join("fast")
	specs := make([]TaskSpec, 5)
	for i := range specs {
		specs[i] = TaskSpec{Records: []string{"r"}, Classes: 2}
	}
	c.SubmitTasks(specs)
	for i := 0; i < 5; i++ {
		a, ok, _ := c.FetchTask(fast)
		if !ok {
			t.Fatal("no task")
		}
		now = now.Add(2 * time.Second)
		c.Submit(fast, a.TaskID, []int{0})
	}
	if s.CountersNow().Retired != 0 {
		t.Fatal("fast worker retired")
	}
}

func TestServerMaintenanceDisabledByDefault(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock})
	w, _ := c.Join("anyone")
	specs := make([]TaskSpec, 4)
	for i := range specs {
		specs[i] = TaskSpec{Records: []string{"r"}, Classes: 2}
	}
	c.SubmitTasks(specs)
	for i := 0; i < 4; i++ {
		a, ok, _ := c.FetchTask(w)
		if !ok {
			t.Fatal("no task")
		}
		now = now.Add(time.Hour) // absurdly slow
		c.Submit(w, a.TaskID, []int{0})
	}
	if s.CountersNow().Retired != 0 {
		t.Fatal("maintenance fired while disabled")
	}
}
