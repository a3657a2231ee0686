package fabric

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/journal/journaltest"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
)

// persistFabric builds a fabric with the journal engine open over dir.
// The leak sentinel covers the background compactor and the journal
// group-commit tickers: ClosePersist must join them all.
func persistFabric(t *testing.T, cfg server.Config, n int, dir string, opts PersistOptions) *Fabric {
	t.Helper()
	t.Cleanup(servertest.VerifyNone(t))
	fab := New(cfg, n)
	opts.Dir = dir
	if err := fab.OpenPersist(opts); err != nil {
		t.Fatalf("OpenPersist(%d shards): %v", n, err)
	}
	t.Cleanup(func() { fab.ClosePersist() })
	return fab
}

// TestPersistRecoveryStress hammers a persisted fabric with concurrent
// joins, submissions, polls, answers and leaves while the background
// compactor races the traffic, then closes the engine and recovers into a
// fresh fabric. The facade snapshot — the complete durable state — must be
// byte-identical before and after recovery: nothing an acknowledged client
// saw is lost, nothing is double-counted. Run under -race in CI.
func TestPersistRecoveryStress(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1}
	fab := persistFabric(t, cfg, shards, dir, PersistOptions{
		Retention:       50 * time.Millisecond,
		CompactInterval: 5 * time.Millisecond, // compactor races the traffic
	})
	ts := httptest.NewServer(fab)
	defer ts.Close()

	const drivers = 8
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			cl := server.NewClient(ts.URL)
			wid, err := cl.Join(fmt.Sprintf("driver-%d", d))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 40; i++ {
				ids, err := cl.SubmitTasks([]server.TaskSpec{{
					Records: []string{fmt.Sprintf("rec-%d-%d", d, i)},
					Classes: 2, Quorum: 1, Priority: i % 3,
				}})
				if err != nil {
					t.Error(err)
					return
				}
				_ = ids
				if a, ok, err := cl.FetchTask(wid); err != nil {
					t.Error(err)
					return
				} else if ok {
					if _, _, err := cl.Submit(wid, a.TaskID, make([]int, len(a.Records))); err != nil {
						t.Error(err)
						return
					}
				}
			}
			if d%2 == 0 {
				cl.Leave(wid)
			}
		}(d)
	}
	wg.Wait()
	if err := fab.PersistErr(); err != nil {
		t.Fatalf("durability error under load: %v", err)
	}

	// Stop the engine first (the compactor keeps demoting while it runs),
	// then capture the authoritative pre-restart state.
	if err := fab.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	before, err := fab.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	// Recover into a fresh fabric: same shard count, no compactor (the
	// state must already be there, not re-derived).
	fab2 := persistFabric(t, cfg, shards, dir, PersistOptions{})
	after, err := fab2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		os.WriteFile("/tmp/before.json", before, 0o644)
		os.WriteFile("/tmp/after.json", after, 0o644)
		t.Fatalf("recovered state diverged from pre-crash state: before %d bytes, after %d bytes (dumped to /tmp)",
			len(before), len(after))
	}

	// The recovered fabric must serve: a worker joins and drains a task.
	cl := server.NewClient(httptest.NewServer(fab2).URL)
	wid, err := cl.Join("post-recovery")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cl.FetchTask(wid); err != nil {
		t.Fatalf("post-recovery fetch: ok=%v err=%v", ok, err)
	}
}

// TestPersistUpgradeFromV1 boots a fabric on a persist directory whose
// journals hold only v1 (JSON) records, as an earlier build leaves it. The
// upgraded fabric must recover the same state, serve, append binary
// records to the live v1 generations, and come back from the mixed
// journals with a byte-identical /api/snapshot.
func TestPersistUpgradeFromV1(t *testing.T) {
	const shards = 2
	dir := t.TempDir()
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1}
	wals := func() []string {
		paths, err := filepath.Glob(filepath.Join(dir, "shard-*", "wal-*"))
		if err != nil || len(paths) != shards {
			t.Fatalf("wal files %v (err %v), want one per shard", paths, err)
		}
		return paths
	}
	// serve joins a worker, submits n tasks and answers half of them, then
	// stops the engine and returns the facade snapshot.
	serve := func(fab *Fabric, phase string, n int) []byte {
		t.Helper()
		ts := httptest.NewServer(fab)
		defer ts.Close()
		cl := server.NewClient(ts.URL)
		wid, err := cl.Join(phase)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := cl.SubmitTasks([]server.TaskSpec{{
				Records: []string{fmt.Sprintf("%s-%d", phase, i), "b"}, Classes: 3, Quorum: 1, Priority: i % 3,
			}}); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n/2; i++ {
			a, ok, err := cl.FetchTask(wid)
			if err != nil || !ok {
				t.Fatalf("%s fetch %d: ok=%v err=%v", phase, i, ok, err)
			}
			if acc, _, err := cl.Submit(wid, a.TaskID, []int{i % 3, 1}); err != nil || !acc {
				t.Fatalf("%s submit: acc=%v err=%v", phase, acc, err)
			}
		}
		if err := fab.ClosePersist(); err != nil {
			t.Fatal(err)
		}
		snap, err := cl.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	snapshotOf := func(fab *Fabric) []byte {
		t.Helper()
		ts := httptest.NewServer(fab)
		defer ts.Close()
		snap, err := server.NewClient(ts.URL).Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}

	// An earlier build's directory: the same journals with v1 records.
	old := serve(persistFabric(t, cfg, shards, dir, PersistOptions{}), "old", 12)
	for _, path := range wals() {
		if err := journaltest.DowngradeWAL(path, -1); err != nil {
			t.Fatal(err)
		}
	}

	fab := persistFabric(t, cfg, shards, dir, PersistOptions{})
	if got := snapshotOf(fab); !bytes.Equal(got, old) {
		t.Fatalf("v1 journals recovered a different state:\n got %s\nwant %s", got, old)
	}
	upgraded := serve(fab, "new", 12)
	for _, path := range wals() {
		v1, bin, err := journaltest.RecordKinds(path)
		if err != nil {
			t.Fatal(err)
		}
		if v1 == 0 || bin == 0 {
			t.Fatalf("%s holds %d v1 and %d binary records, want both", path, v1, bin)
		}
	}

	if got := snapshotOf(persistFabric(t, cfg, shards, dir, PersistOptions{})); !bytes.Equal(got, upgraded) {
		t.Fatalf("mixed journals recovered a different state:\n got %s\nwant %s", got, upgraded)
	}
}

// TestPersistRestoreReplacesRetainedTier: a facade restore onto a
// persisted fabric is a wholesale state replacement. Tallies carried by
// the incoming snapshot must survive the NEXT restart (they reach the
// rebuilt retained log), and tallies of the replaced state must not
// resurrect from the old log.
func TestPersistRestoreReplacesRetainedTier(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	cfg := server.Config{WorkerTimeout: 24 * time.Hour, Now: func() time.Time { return now }}

	// Build a persisted fabric whose only task is demoted to a tally.
	fab := persistFabric(t, cfg, 2, dir, PersistOptions{Retention: time.Minute})
	ts := httptest.NewServer(fab)
	defer ts.Close()
	cl := server.NewClient(ts.URL)
	wid, _ := cl.Join("w")
	staleIDs, _ := cl.SubmitTasks([]server.TaskSpec{{Records: []string{"stale"}, Classes: 2, Quorum: 1}})
	if _, ok, _ := cl.FetchTask(wid); !ok {
		t.Fatal("no assignment")
	}
	if acc, _, _ := cl.Submit(wid, staleIDs[0], []int{1}); !acc {
		t.Fatal("submit rejected")
	}
	now = now.Add(time.Hour)
	if err := fab.CompactAll(); err != nil {
		t.Fatal(err)
	}

	// Restore a different world: one live task, one retained tally.
	incoming := server.SnapshotState{
		Version:  server.SnapshotVersion,
		NextTask: 40,
		Order:    []int{20, 31},
		Tasks: []server.TaskState{{
			ID:   31,
			Spec: server.TaskSpec{Records: []string{"live"}, Classes: 2, Quorum: 1},
		}},
		Retained: []server.RetainedTask{{
			ID: 20, Records: 1, Classes: 2,
			Answers: [][]int{{1}}, Voters: []int{9},
			DoneAt: now.Add(-2 * time.Hour).UnixNano(),
		}},
	}
	data, err := server.EncodeSnapshot(incoming)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Restore(data); err != nil {
		t.Fatal(err)
	}

	// Restart from disk: the restore must have been durable at its ack.
	if err := fab.ClosePersist(); err != nil {
		t.Fatal(err)
	}
	fab2 := persistFabric(t, cfg, 2, dir, PersistOptions{Retention: time.Minute})
	ts2 := httptest.NewServer(fab2)
	defer ts2.Close()
	cl2 := server.NewClient(ts2.URL)

	// The imported tally answers across the restart...
	res, err := cl2.Result(20)
	if err != nil {
		t.Fatalf("imported tally lost across restart: %v", err)
	}
	if res.State != "complete" || len(res.Consensus) != 1 || res.Consensus[0] != 1 {
		t.Fatalf("imported tally result = %+v", res)
	}
	// ...the imported live task is still live...
	if res, err := cl2.Result(31); err != nil || res.State != "unassigned" {
		t.Fatalf("imported live task = %+v err=%v", res, err)
	}
	// ...and the replaced world's tally did not resurrect.
	if res, err := cl2.Result(staleIDs[0]); err == nil {
		t.Fatalf("stale pre-restore task %d resurrected as %+v", staleIDs[0], res)
	}
	if status, _ := cl2.Status(); status["tasks"] != 2 {
		t.Fatalf("status after restore+restart = %v, want exactly the 2 restored tasks", status)
	}
}

// TestPersistResizeUnderLoad is the resize-on-restore regression: a
// persist directory written by a 1-shard fabric reboots as 8 shards, takes
// more traffic, then reboots as 3 — with in-flight assignments standing at
// every handoff — without losing a single task, answer, or ledger cent.
func TestPersistResizeUnderLoad(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1}

	var allIDs []int
	answered := map[int][]int{} // task id -> accepted labels

	// Phase 1: 1 shard. Submit, answer some, leave some in flight.
	fab := persistFabric(t, cfg, 1, dir, PersistOptions{})
	ts := httptest.NewServer(fab)
	cl := server.NewClient(ts.URL)
	wid, _ := cl.Join("phase1")
	for i := 0; i < 30; i++ {
		ids, err := cl.SubmitTasks([]server.TaskSpec{{
			Records: []string{fmt.Sprintf("p1-%d", i)}, Classes: 2, Quorum: 1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		allIDs = append(allIDs, ids...)
	}
	for i := 0; i < 12; i++ {
		a, ok, err := cl.FetchTask(wid)
		if err != nil || !ok {
			t.Fatalf("phase1 fetch %d: ok=%v err=%v", i, ok, err)
		}
		labels := []int{i % 2}
		if acc, _, err := cl.Submit(wid, a.TaskID, labels); err != nil || !acc {
			t.Fatalf("phase1 submit: acc=%v err=%v", acc, err)
		}
		answered[a.TaskID] = labels
	}
	// Leave one assignment in flight across the resize.
	if _, ok, _ := cl.FetchTask(wid); !ok {
		t.Fatal("phase1: no in-flight assignment")
	}
	ts.Close()
	if err := fab.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	check := func(fabN *Fabric, phase string, n int) {
		t.Helper()
		if got := fabN.NumShards(); got != n {
			t.Fatalf("%s: %d shards, want %d", phase, got, n)
		}
		tsN := httptest.NewServer(fabN)
		defer tsN.Close()
		clN := server.NewClient(tsN.URL)
		status, err := clN.Status()
		if err != nil {
			t.Fatal(err)
		}
		if status["tasks"] != len(allIDs) {
			t.Fatalf("%s: %d tasks survived, want %d", phase, status["tasks"], len(allIDs))
		}
		if status["complete"] != len(answered) {
			t.Fatalf("%s: %d complete, want %d", phase, status["complete"], len(answered))
		}
		for _, id := range allIDs {
			res, err := clN.Result(id)
			if err != nil {
				t.Fatalf("%s: task %d lost in resize: %v", phase, id, err)
			}
			if labels, ok := answered[id]; ok {
				if res.State != "complete" || len(res.Consensus) != len(labels) || res.Consensus[0] != labels[0] {
					t.Fatalf("%s: task %d result %+v, want complete %v", phase, id, res, labels)
				}
			} else if res.State == "complete" {
				t.Fatalf("%s: unanswered task %d restored as complete", phase, id)
			}
		}
		cons, err := clN.Consensus("majority")
		if err != nil {
			t.Fatal(err)
		}
		for id, labels := range answered {
			if got := cons.Labels[id]; len(got) != len(labels) || got[0] != labels[0] {
				t.Fatalf("%s: consensus for %d = %v, want %v", phase, id, got, labels)
			}
		}
	}

	// Phase 2: same directory, 8 shards. Everything re-placed, nothing lost.
	fab8 := persistFabric(t, cfg, 8, dir, PersistOptions{})
	check(fab8, "1->8", 8)

	// More traffic on the 8-shard layout, again with an in-flight tail.
	ts8 := httptest.NewServer(fab8)
	cl8 := server.NewClient(ts8.URL)
	w8, _ := cl8.Join("phase2")
	for i := 0; i < 20; i++ {
		ids, err := cl8.SubmitTasks([]server.TaskSpec{{
			Records: []string{fmt.Sprintf("p2-%d", i)}, Classes: 2, Quorum: 1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		allIDs = append(allIDs, ids...)
	}
	for i := 0; i < 9; i++ {
		a, ok, err := cl8.FetchTask(w8)
		if err != nil || !ok {
			t.Fatalf("phase2 fetch %d: ok=%v err=%v", i, ok, err)
		}
		labels := []int{1}
		if acc, _, err := cl8.Submit(w8, a.TaskID, labels); err != nil || !acc {
			t.Fatalf("phase2 submit: acc=%v err=%v", acc, err)
		}
		answered[a.TaskID] = labels
	}
	if _, ok, _ := cl8.FetchTask(w8); !ok {
		t.Fatal("phase2: no in-flight assignment")
	}
	ts8.Close()
	if err := fab8.ClosePersist(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: shrink to 3 shards.
	fab3 := persistFabric(t, cfg, 3, dir, PersistOptions{})
	check(fab3, "8->3", 3)

	// The 3-shard fabric keeps allocating ids above the global high-water
	// mark and serving the re-placed backlog.
	ts3 := httptest.NewServer(fab3)
	defer ts3.Close()
	cl3 := server.NewClient(ts3.URL)
	ids, err := cl3.SubmitTasks([]server.TaskSpec{{Records: []string{"p3"}, Classes: 2, Quorum: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range allIDs {
		if ids[0] == old {
			t.Fatalf("post-resize id %d collides with survivor", ids[0])
		}
	}
	w3, _ := cl3.Join("phase3")
	if _, ok, err := cl3.FetchTask(w3); err != nil || !ok {
		t.Fatalf("phase3 fetch: ok=%v err=%v", ok, err)
	}
}
