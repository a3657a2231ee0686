package server

import (
	"strings"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/quality"
)

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	c, s := newTestServer(t, Config{})

	// Build up state: two tasks, one completed by a worker.
	wid, err := c.Join("alice")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := c.SubmitTasks([]TaskSpec{
		{Records: []string{"r1", "r2"}, Classes: 2, Quorum: 1},
		{Records: []string{"r3"}, Classes: 3, Quorum: 2},
	})
	if err != nil || len(ids) != 2 {
		t.Fatalf("submit: ids=%v err=%v", ids, err)
	}
	a, ok, err := c.FetchTask(wid)
	if err != nil || !ok {
		t.Fatalf("fetch: ok=%v err=%v", ok, err)
	}
	if _, _, err := c.Submit(wid, a.TaskID, []int{1, 0}); err != nil {
		t.Fatal(err)
	}

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh shard: tasks, answers and counters must carry
	// over; workers must not.
	c2, s2 := newTestServer(t, Config{})
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	st := s2.CountersNow()
	if st.Tasks != 2 || st.Complete != 1 {
		t.Fatalf("restored counters = %+v, want 2 tasks / 1 complete", st)
	}
	if st.Workers != 0 {
		t.Fatalf("restored shard has %d workers, want 0 (workers rejoin)", st.Workers)
	}
	res, err := c2.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "complete" || len(res.Consensus) != 2 {
		t.Fatalf("restored result = %+v, want complete with 2 consensus labels", res)
	}

	// The restored queue must hand out the unfinished task to a new worker.
	wid2, err := c2.Join("bob")
	if err != nil {
		t.Fatal(err)
	}
	a2, ok, err := c2.FetchTask(wid2)
	if err != nil || !ok {
		t.Fatalf("fetch after restore: ok=%v err=%v", ok, err)
	}
	if a2.TaskID != ids[1] {
		t.Fatalf("restored queue handed task %d, want unfinished task %d", a2.TaskID, ids[1])
	}

	// Task ids must keep counting from the snapshot's high-water mark.
	newIDs, err := c2.SubmitTasks([]TaskSpec{{Records: []string{"x"}, Classes: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if newIDs[0] <= ids[1] {
		t.Fatalf("new task id %d not above restored high-water %d", newIDs[0], ids[1])
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	s := NewShard(Config{}, 0, 1)
	cases := map[string]string{
		"not json":          "{",
		"wrong version":     `{"version": 99}`,
		"task no records":   `{"version":1,"tasks":[{"id":1,"spec":{"records":[],"classes":2}}]}`,
		"answers != voters": `{"version":1,"tasks":[{"id":1,"spec":{"records":["a"],"classes":2},"answers":[[0]],"voters":[]}]}`,
		"order unknown id":  `{"version":1,"order":[5]}`,
	}
	for name, body := range cases {
		if err := s.Restore([]byte(body)); err == nil {
			t.Errorf("%s: Restore accepted invalid snapshot", name)
		}
	}
}

func TestRestoreDropsInFlightAssignments(t *testing.T) {
	c, s := newTestServer(t, Config{})
	wid, _ := c.Join("w")
	ids, _ := c.SubmitTasks([]TaskSpec{{Records: []string{"a"}, Classes: 2}})
	if _, ok, _ := c.FetchTask(wid); !ok {
		t.Fatal("fetch failed")
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot was taken while the task was in flight; after restore it
	// must be unassigned, not stuck active forever.
	c2, s2 := newTestServer(t, Config{})
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res, err := c2.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "unassigned" {
		t.Fatalf("in-flight task restored as %q, want unassigned", res.State)
	}
}

// Retention compaction must demote old completed tasks to vote tallies —
// dropping their payloads from the compacted snapshot — while /api/result,
// /api/consensus and the status counters keep answering for them, and a
// snapshot/restore round trip carries the tallies along.
func TestRetentionDemotion(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	c, s := newTestServer(t, Config{Now: clock, WorkerTimeout: time.Hour})
	st, rec, err := journal.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := s.RecoverFrom(st, rec); err != nil {
		t.Fatal(err)
	}

	wid, _ := c.Join("w")
	ids, _ := c.SubmitTasks([]TaskSpec{
		{Records: []string{"old payload, long and heavy"}, Classes: 2, Quorum: 1},
		{Records: []string{"pending"}, Classes: 2, Quorum: 1},
	})
	if _, ok, _ := c.FetchTask(wid); !ok {
		t.Fatal("no assignment")
	}
	if acc, _, _ := c.Submit(wid, ids[0], []int{1}); !acc {
		t.Fatal("submit rejected")
	}

	// Age the completed task past the window and compact.
	now = now.Add(time.Hour)
	if err := s.CompactInto(st, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	_, live := s.tasks[ids[0]]
	_, tallied := s.tallies[ids[0]]
	s.mu.Unlock()
	if live || !tallied {
		t.Fatalf("task %d after compaction: live=%v tallied=%v, want demoted", ids[0], live, tallied)
	}

	// The demoted task still answers as complete with its consensus.
	res, err := c.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "complete" || len(res.Consensus) != 1 || res.Consensus[0] != 1 {
		t.Fatalf("retained result = %+v, want complete with consensus [1]", res)
	}
	if len(res.Records) != 0 {
		t.Fatalf("retained result still carries payloads: %v", res.Records)
	}
	// The consensus vote graph still pools the retained votes (every
	// task here has one record, so the stride is 1).
	if got := quality.MajorityLabels(s.Votes(1))[ids[0]]; got != 1 {
		t.Fatalf("majority consensus for retained task = %d, want 1", got)
	}
	if order, records := s.TaskMeta(); len(order) != 2 || records[ids[0]] != 1 {
		t.Fatalf("task meta after demotion: order %v records %v, want the retained task kept", order, records)
	}
	// Counters keep counting demoted tasks.
	if st := s.CountersNow(); st.Tasks != 2 || st.Complete != 1 {
		t.Fatalf("counters after demotion = %+v, want 2 tasks / 1 complete", st)
	}
	// A late submission against a demoted task is an unknown task: the
	// retention window is the replay horizon.
	if _, _, err := c.Submit(wid, ids[0], []int{0}); err == nil {
		t.Fatal("submit against a demoted task succeeded")
	}

	// The facade snapshot carries the tally and restores it.
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), `"retained"`) {
		t.Fatalf("facade snapshot lost the retained tier:\n%s", snap)
	}
	c2, s2 := newTestServer(t, Config{Now: clock})
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if res2.State != "complete" || len(res2.Consensus) != 1 {
		t.Fatalf("restored retained result = %+v", res2)
	}
}

func TestSnapshotIsStableJSON(t *testing.T) {
	c, s := newTestServer(t, Config{})
	c.SubmitTasks([]TaskSpec{{Records: []string{"a"}, Classes: 2}})
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(snap), `"version": 1`) {
		t.Fatalf("snapshot missing version field:\n%s", snap)
	}
}
