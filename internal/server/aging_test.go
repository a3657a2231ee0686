package server

import (
	"strings"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/journal"
)

// Tally aging is the second demotion tier: a retained tally older than
// Config.TallyHorizon is frozen to a count-only aggregate (consensus labels
// and answer count survive; the per-worker vote matrix is dropped), which
// bounds retained-log growth on long-lived deployments. The aged record
// must keep answering /api/result, bump the aged counter on the scrape
// surface, and survive a journal recovery round trip.
func TestTallyAging(t *testing.T) {
	now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
	clock := func() time.Time { return now }
	dir := t.TempDir()
	c, s := newTestServer(t, Config{Now: clock, WorkerTimeout: time.Hour, TallyHorizon: 2 * time.Hour})
	st, rec, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RecoverFrom(st, rec); err != nil {
		t.Fatal(err)
	}

	wid, _ := c.Join("w")
	ids, _ := c.SubmitTasks([]TaskSpec{
		{Records: []string{"a", "b"}, Classes: 2, Quorum: 1},
	})
	if _, ok, _ := c.FetchTask(wid); !ok {
		t.Fatal("no assignment")
	}
	if acc, _, _ := c.Submit(wid, ids[0], []int{1, 0}); !acc {
		t.Fatal("submit rejected")
	}

	// Past retention but inside the horizon: demoted to a full tally.
	now = now.Add(time.Hour)
	if err := s.CompactInto(st, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	tal := s.tallies[ids[0]]
	s.mu.Unlock()
	if tal == nil {
		t.Fatal("task not demoted to a tally")
	}
	if tal.Aged || len(tal.Answers) == 0 {
		t.Fatalf("tally aged prematurely: %+v", tal)
	}

	// Cross the horizon: the next compaction ages it.
	now = now.Add(3 * time.Hour)
	if err := s.CompactInto(st, 30*time.Minute); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	tal = s.tallies[ids[0]]
	aged := s.talliesAged
	s.mu.Unlock()
	if !tal.Aged || tal.Answers != nil || tal.Voters != nil {
		t.Fatalf("tally not aged to a count-only aggregate: %+v", tal)
	}
	if tal.AnswerCount != 1 || len(tal.Consensus) != 2 || tal.Consensus[0] != 1 || tal.Consensus[1] != 0 {
		t.Fatalf("aged tally lost its aggregate: %+v", tal)
	}
	if aged != 1 {
		t.Fatalf("talliesAged = %d, want 1", aged)
	}

	// The aged task still answers with its frozen consensus.
	res, err := c.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if res.State != "complete" || res.Answers != 1 ||
		len(res.Consensus) != 2 || res.Consensus[0] != 1 || res.Consensus[1] != 0 {
		t.Fatalf("aged result = %+v, want complete with consensus [1 0]", res)
	}

	// The scrape surface counts the aging.
	page := string(BuildMetricsPage([]ShardMetrics{s.MetricsState()}, s.Obs(), nil).RenderPrometheus())
	if !strings.Contains(page, "clamshell_tallies_aged_total 1") {
		t.Fatalf("metrics missing aged counter:\n%s", page)
	}

	// Recovery round trip: the aged record (appended over the original by
	// last-wins overlay) must come back aged, still answering.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, rec2, err := journal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	c2, s2 := newTestServer(t, Config{Now: clock, TallyHorizon: 2 * time.Hour})
	if err := s2.RecoverFrom(st2, rec2); err != nil {
		t.Fatal(err)
	}
	res2, err := c2.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if res2.State != "complete" || res2.Answers != 1 || len(res2.Consensus) != 2 {
		t.Fatalf("recovered aged result = %+v", res2)
	}
	s2.mu.Lock()
	tal2 := s2.tallies[ids[0]]
	s2.mu.Unlock()
	if tal2 == nil || !tal2.Aged {
		t.Fatalf("recovered tally not aged: %+v", tal2)
	}
}
