package server

import "testing"

func TestHighPriorityTasksServedFirst(t *testing.T) {
	c, _ := newTestServer(t, Config{})
	wid, _ := c.Join("w")

	ids, err := c.SubmitTasks([]TaskSpec{
		{Records: []string{"passive-1"}, Classes: 2, Priority: 0},
		{Records: []string{"active-1"}, Classes: 2, Priority: 10},
		{Records: []string{"passive-2"}, Classes: 2, Priority: 0},
		{Records: []string{"active-2"}, Classes: 2, Priority: 10},
	})
	if err != nil {
		t.Fatal(err)
	}

	var got []int
	for range ids {
		a, ok, err := c.FetchTask(wid)
		if err != nil || !ok {
			t.Fatalf("fetch: ok=%v err=%v", ok, err)
		}
		got = append(got, a.TaskID)
		if _, _, err := c.Submit(wid, a.TaskID, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	// Both priority-10 tasks (ids[1], ids[3]) first, FIFO within priority.
	want := []int{ids[1], ids[3], ids[0], ids[2]}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("serve order %v, want %v", got, want)
		}
	}
}

func TestPriorityAppliesToSpeculationToo(t *testing.T) {
	c, _ := newTestServer(t, Config{SpeculationLimit: 1})
	w1, _ := c.Join("w1")
	w2, _ := c.Join("w2")
	w3, _ := c.Join("w3")

	ids, err := c.SubmitTasks([]TaskSpec{
		{Records: []string{"low"}, Classes: 2, Priority: 0},
		{Records: []string{"high"}, Classes: 2, Priority: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	// w1 takes the high task, w2 the low one; both tasks are now active, so
	// w3 gets a speculative duplicate — of the high-priority task.
	a1, _, _ := c.FetchTask(w1)
	if a1.TaskID != ids[1] {
		t.Fatalf("w1 got task %d, want high-priority %d", a1.TaskID, ids[1])
	}
	a2, _, _ := c.FetchTask(w2)
	if a2.TaskID != ids[0] {
		t.Fatalf("w2 got task %d, want low-priority %d", a2.TaskID, ids[0])
	}
	a3, ok, err := c.FetchTask(w3)
	if err != nil || !ok {
		t.Fatalf("w3 should get a speculative duplicate: ok=%v err=%v", ok, err)
	}
	if a3.TaskID != ids[1] {
		t.Fatalf("speculation went to task %d, want high-priority %d", a3.TaskID, ids[1])
	}
}

func TestPrioritySurvivesSnapshotRestore(t *testing.T) {
	c, s := newTestServer(t, Config{})
	ids, _ := c.SubmitTasks([]TaskSpec{
		{Records: []string{"low"}, Classes: 2, Priority: 0},
		{Records: []string{"high"}, Classes: 2, Priority: 9},
	})
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	c2, s2 := newTestServer(t, Config{})
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	wid, _ := c2.Join("w")
	a, ok, _ := c2.FetchTask(wid)
	if !ok || a.TaskID != ids[1] {
		t.Fatalf("restored server served task %d first, want high-priority %d", a.TaskID, ids[1])
	}
}
