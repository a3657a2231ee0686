package server_test

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/server"
)

// The admin endpoints (health, metrics, consensus, the worker UI) have one
// implementation, the fabric's; these tests drive them on a 1-shard fabric,
// the node's HTTP server.

// newNode serves a 1-shard fabric and returns a client for it.
func newNode(t *testing.T, cfg server.Config) *server.Client {
	t.Helper()
	ts := httptest.NewServer(fabric.New(cfg, 1))
	t.Cleanup(ts.Close)
	return server.NewClient(ts.URL)
}

func TestHealthzReportsUptime(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newNode(t, server.Config{Now: func() time.Time { return now }})
	r, err := c.HTTP.Get(c.BaseURL + "/api/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != 200 {
		t.Fatalf("healthz status %d, want 200", r.StatusCode)
	}
}

func TestMetricszExposesCountersAndQuantiles(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }
	c := newNode(t, server.Config{Now: clock})

	wid, _ := c.Join("w")
	c.SubmitTasks([]server.TaskSpec{
		{Records: []string{"a", "b"}, Classes: 2},
		{Records: []string{"c"}, Classes: 2},
	})
	// Complete both tasks with known latencies.
	for i := 0; i < 2; i++ {
		a, ok, err := c.FetchTask(wid)
		if err != nil || !ok {
			t.Fatalf("fetch %d: ok=%v err=%v", i, ok, err)
		}
		now = now.Add(4 * time.Second)
		labels := make([]int, len(a.Records))
		if _, _, err := c.Submit(wid, a.TaskID, labels); err != nil {
			t.Fatal(err)
		}
	}

	body, err := c.Metricsz()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"clamshell_tasks_total 2",
		"clamshell_tasks_complete 2",
		"clamshell_workers 1",
		`clamshell_latency_per_record_seconds{quantile="0.5"}`,
		`clamshell_latency_per_record_seconds{quantile="0.95"}`,
		`clamshell_latency_per_record_seconds{quantile="0.99"}`,
		"clamshell_latency_per_record_seconds_count 2",
		"clamshell_cost_total_dollars",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metricsz missing %q:\n%s", want, body)
		}
	}
}

func TestMetricszLatencyQuantileValue(t *testing.T) {
	now := time.Unix(1000, 0)
	c := newNode(t, server.Config{Now: func() time.Time { return now }})
	wid, _ := c.Join("w")
	c.SubmitTasks([]server.TaskSpec{{Records: []string{"a"}, Classes: 2}})
	a, _, _ := c.FetchTask(wid)
	now = now.Add(6 * time.Second)
	c.Submit(wid, a.TaskID, []int{0})

	body, err := c.Metricsz()
	if err != nil {
		t.Fatal(err)
	}
	// With a single 6s/record observation, every quantile reports 6.
	if !strings.Contains(body, `clamshell_latency_per_record_seconds{quantile="0.5"} 6`) {
		t.Fatalf("expected p50 of 6s in metrics:\n%s", body)
	}
}
