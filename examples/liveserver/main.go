// Liveserver: the routing-server path end to end, in one process. The
// retainer-pool HTTP server — a 1-shard fabric, the same server
// clamshell-server runs — is started on a local port; a small swarm of
// simulated worker clients joins the pool, polls for work, labels with
// human-like noise and latency, and occasionally straggles — at which point
// the server hands speculative duplicates to idle workers and the first
// answer wins. Meanwhile the "client" submits a batch of sentiment tasks
// and collects consensus labels.
//
// This is the same protocol a real crowd frontend (e.g. an MTurk
// ExternalQuestion iframe) would speak; only the workers are simulated.
package main

import (
	"fmt"
	"math/rand"
	"net/http/httptest"
	"sync"
	"time"

	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/server"
)

func main() {
	srv := fabric.New(server.Config{
		SpeculationLimit:     1,
		MaintenanceThreshold: 300 * time.Millisecond, // retire slow workers
	}, 1)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	fmt.Printf("routing server listening at %s\n", ts.URL)

	// Submit 30 sentiment tasks, quorum 3.
	client := server.NewClient(ts.URL)
	specs := make([]server.TaskSpec, 30)
	for i := range specs {
		specs[i] = server.TaskSpec{
			Records: []string{fmt.Sprintf("tweet #%d about the debate", i)},
			Classes: 3,
			Quorum:  3,
		}
	}
	ids, err := client.SubmitTasks(specs)
	if err != nil {
		panic(err)
	}
	fmt.Printf("submitted %d tasks (quorum 3)\n", len(ids))

	// A pool of 6 simulated workers; worker 5 is a straggler.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(n)))
			wc := server.NewClient(ts.URL)
			wid, err := wc.Join(fmt.Sprintf("sim-worker-%d", n))
			if err != nil {
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
					return // retired or server gone
				}
				if !ok {
					time.Sleep(5 * time.Millisecond)
					continue
				}
				// Work time: fast workers ~20-60ms, the straggler ~500ms.
				delay := time.Duration(20+rng.Intn(40)) * time.Millisecond
				if n == 5 {
					delay = 500 * time.Millisecond
				}
				time.Sleep(delay)
				labels := make([]int, len(a.Records))
				for i := range labels {
					labels[i] = rng.Intn(3)
				}
				wc.Submit(wid, a.TaskID, labels)
			}
		}(w)
	}

	// Wait for completion, then report.
	for {
		st, err := client.Status()
		if err != nil {
			panic(err)
		}
		if st["complete"] == len(ids) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	st, _ := client.Status()
	fmt.Printf("all %d tasks complete: %d straggler answers terminated, %d workers retired by maintenance\n",
		st["complete"], st["terminated"], st["retired"])

	counts := [3]int{}
	for _, id := range ids[:5] {
		res, err := client.Result(id)
		if err != nil {
			panic(err)
		}
		fmt.Printf("  task %2d -> consensus %v from %d answers\n", id, res.Consensus, res.Answers)
	}
	for _, id := range ids {
		res, _ := client.Result(id)
		if len(res.Consensus) > 0 {
			counts[res.Consensus[0]]++
		}
	}
	fmt.Printf("sentiment tally: pos=%d neg=%d neutral=%d\n", counts[0], counts[1], counts[2])
}
