package server_test

import (
	"math/rand"
	"testing"

	"github.com/clamshell/clamshell/internal/server"
)

// runHostileCrowd drives a crowd through a 1-shard fabric's HTTP API: nTasks binary
// single-record tasks at quorum 4, answered by two reliable workers, one
// adversary (always wrong) and one spammer (random) — net-informative
// (mean accuracy 0.625 > 1/2), the identifiability condition every
// unsupervised estimator needs, but noisy enough that per-task majority
// voting suffers (2-2 ties whenever the coin lands with the adversary).
// Returns the client and the ground truth per task id.
func runHostileCrowd(t *testing.T, nTasks int) (*server.Client, map[int]int) {
	t.Helper()
	c := newNode(t, server.Config{})

	good1, err := c.Join("good1")
	if err != nil {
		t.Fatal(err)
	}
	good2, _ := c.Join("good2")
	adversary, _ := c.Join("adversary")
	spammer, _ := c.Join("spammer")

	specs := make([]server.TaskSpec, nTasks)
	rng := rand.New(rand.NewSource(99))
	truth := make(map[int]int, nTasks)
	for i := range specs {
		specs[i] = server.TaskSpec{Records: []string{"item"}, Classes: 2, Quorum: 4}
	}
	ids, err := c.SubmitTasks(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		truth[id] = rng.Intn(2)
	}

	// Interleave so each task collects one vote from each worker (quorum 3
	// admits all three; the answered-check prevents repeat votes).
	for range ids {
		for _, w := range []struct {
			id int
			f  func(int) int
		}{
			{good1, func(tr int) int { return tr }},
			{good2, func(tr int) int { return tr }},
			{adversary, func(tr int) int { return 1 - tr }},
			{spammer, func(tr int) int { return rng.Intn(2) }},
		} {
			a, ok, err := c.FetchTask(w.id)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				continue
			}
			if _, _, err := c.Submit(w.id, a.TaskID, []int{w.f(truth[a.TaskID])}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return c, truth
}

// accuracyOf scores consensus labels against truth.
func accuracyOf(labels map[int][]int, truth map[int]int) float64 {
	correct, total := 0, 0
	for id, want := range truth {
		got, ok := labels[id]
		if !ok || len(got) == 0 || got[0] < 0 {
			continue
		}
		total++
		if got[0] == want {
			correct++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

func TestConsensusGraphEstimatorsBeatMajority(t *testing.T) {
	c, truth := runHostileCrowd(t, 40)

	maj, err := c.Consensus("majority")
	if err != nil {
		t.Fatal(err)
	}
	em, err := c.Consensus("em")
	if err != nil {
		t.Fatal(err)
	}
	kos, err := c.Consensus("kos")
	if err != nil {
		t.Fatal(err)
	}

	majAcc := accuracyOf(maj.Labels, truth)
	emAcc := accuracyOf(em.Labels, truth)
	kosAcc := accuracyOf(kos.Labels, truth)

	// With votes {truth, truth, 1-truth, coin}, per-task majority loses the
	// 2-2 ties; the graph estimators identify the reliable pair across
	// tasks and recover nearly everything.
	if emAcc < 0.9 {
		t.Errorf("EM accuracy %.2f, want >= 0.9", emAcc)
	}
	if kosAcc < 0.9 {
		t.Errorf("KOS accuracy %.2f, want >= 0.9", kosAcc)
	}
	if emAcc <= majAcc-0.05 || kosAcc <= majAcc-0.05 {
		t.Errorf("graph estimators (em %.2f, kos %.2f) should not trail majority (%.2f)",
			emAcc, kosAcc, majAcc)
	}
}

func TestConsensusWorkerScores(t *testing.T) {
	c, _ := runHostileCrowd(t, 40)

	em, err := c.Consensus("em")
	if err != nil {
		t.Fatal(err)
	}
	// Workers 1-2 = reliable, 3 = adversary (ids assigned in join order).
	if em.WorkerScores[1] <= em.WorkerScores[3] {
		t.Errorf("EM should score the reliable worker (%.2f) above the adversary (%.2f)",
			em.WorkerScores[1], em.WorkerScores[3])
	}
	kos, err := c.Consensus("kos")
	if err != nil {
		t.Fatal(err)
	}
	if kos.WorkerScores[3] >= 0 {
		t.Errorf("KOS reliability for the adversary = %.2f, want negative", kos.WorkerScores[3])
	}
	if kos.WorkerScores[1] <= 0 {
		t.Errorf("KOS reliability for the good worker = %.2f, want positive", kos.WorkerScores[1])
	}
}

func TestConsensusMajorityMatchesPerTaskResult(t *testing.T) {
	c := newNode(t, server.Config{})
	wid, _ := c.Join("w")
	ids, _ := c.SubmitTasks([]server.TaskSpec{{Records: []string{"a", "b"}, Classes: 2, Quorum: 1}})
	a, _, _ := c.FetchTask(wid)
	c.Submit(wid, a.TaskID, []int{1, 0})

	res, err := c.Result(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	cons, err := c.Consensus("majority")
	if err != nil {
		t.Fatal(err)
	}
	got := cons.Labels[ids[0]]
	if len(got) != 2 || got[0] != res.Consensus[0] || got[1] != res.Consensus[1] {
		t.Fatalf("consensus %v disagrees with per-task result %v", got, res.Consensus)
	}
	if len(cons.WorkerScores) != 0 {
		t.Fatal("majority estimator should not report worker scores")
	}
}

func TestConsensusRejectsBadEstimator(t *testing.T) {
	c := newNode(t, server.Config{})
	if _, err := c.Consensus("bogus"); err == nil {
		t.Fatal("unknown estimator should be rejected")
	}
}

func TestConsensusKOSRejectsMulticlass(t *testing.T) {
	c := newNode(t, server.Config{})
	c.SubmitTasks([]server.TaskSpec{{Records: []string{"a"}, Classes: 3, Quorum: 1}})
	if _, err := c.Consensus("kos"); err == nil {
		t.Fatal("kos on a 3-class server should be rejected")
	}
	// EM handles multiclass fine.
	if _, err := c.Consensus("em"); err != nil {
		t.Fatalf("em on a 3-class server should work: %v", err)
	}
}
