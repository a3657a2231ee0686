package server

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/journal"
	"github.com/clamshell/clamshell/internal/journal/journaltest"
)

// The crash-recovery property: sever the journal at ANY byte — every
// record boundary, mid-record torn writes, bit flips — and recovery must
// reconstruct exactly the durable state the shard had when that prefix was
// acknowledged. Exact state equality is the strongest form of the
// guarantees that matter operationally: no accepted submit is lost, no
// vote or payment is double-counted, the retired set and counters match.
//
// The harness extends the dispatch property-test pattern: drive a shard
// through randomized protocol sequences (enqueue/assign/steal/submit/
// replay/leave/expire/compact) with write-through journaling attached,
// checkpointing EncodeSnapshot(ExportState()) after every action. Then,
// for each checkpoint, clone the store directory, truncate the wal at the
// checkpoint's record boundary, recover a fresh shard and require its
// exported state to be byte-identical to the checkpoint. Torn writes and
// bit flips must land exactly on the preceding boundary's state. The sweep
// covers both record kinds: once over the binary records as written, once
// over a copy whose first half is rewritten as v1 (JSON) records.

// severCheckpoint pairs a wal position with the expected durable state.
type severCheckpoint struct {
	gen   uint64 // wal generation the checkpoint lives in
	ops   uint64 // records in that wal when the state was captured
	state []byte // EncodeSnapshot(ExportState()) at that moment
}

// cloneStoreDir copies a store directory, truncating the current wal to
// cut bytes (cut < 0 keeps it whole) and optionally flipping one byte.
func cloneStoreDir(t *testing.T, src string, gen uint64, cut int64, flip int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	walName := journal.WALName(gen)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == walName {
			if cut >= 0 && cut < int64(len(data)) {
				data = data[:cut]
			}
			if flip >= 0 && flip < int64(len(data)) {
				data = append([]byte(nil), data...)
				data[flip] ^= 0x5a
			}
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// recoverState opens a (possibly severed) store clone, recovers a fresh
// shard from it and returns the exported durable state.
func recoverState(t *testing.T, dir string, cfg Config) []byte {
	t.Helper()
	st, rec, err := journal.Open(dir)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer st.Close()
	s := NewShard(cfg, 0, 1)
	if err := s.RecoverFrom(st, rec); err != nil {
		t.Fatalf("recovery: %v", err)
	}
	data, err := EncodeSnapshot(s.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// walBoundaries returns the byte offset after record k for k=0..n.
func walBoundaries(t *testing.T, path string) []int64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := journal.NewScanner(f, journal.MagicWAL)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int64{sc.Offset()}
	for {
		if _, err := sc.Scan(); err == io.EOF {
			return bounds
		} else if err != nil {
			t.Fatalf("final wal has a corrupt record after %d: %v", len(bounds)-1, err)
		}
		bounds = append(bounds, sc.Offset())
	}
}

func TestCrashRecoveryProperty(t *testing.T) {
	const trials = 6
	totalChecks := 0
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		now := time.Date(2015, 9, 20, 12, 0, 0, 0, time.UTC)
		cfg := Config{
			SpeculationLimit: 1 + rng.Intn(2),
			WorkerTimeout:    30 * time.Second,
			Now:              func() time.Time { return now },
		}
		if trial%2 == 1 {
			// Exercise retirement ops on odd trials.
			cfg.MaintenanceThreshold = 500 * time.Millisecond
			cfg.MaintenanceMinObs = 1
		}
		dir := t.TempDir()
		st, rec, err := journal.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewShard(cfg, 0, 1)
		if err := s.RecoverFrom(st, rec); err != nil {
			t.Fatal(err)
		}

		var cps []severCheckpoint
		checkpoint := func() {
			data, err := EncodeSnapshot(s.ExportState())
			if err != nil {
				t.Fatal(err)
			}
			cps = append(cps, severCheckpoint{gen: st.Gen(), ops: st.WALOps(), state: data})
		}
		checkpoint() // the empty prefix

		var workers []int
		join := func() { workers = append(workers, s.Join("w")) }
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
		checkpoint()

		compactions := 0
		const steps = 220
		for step := 0; step < steps; step++ {
			now = now.Add(time.Duration(rng.Intn(3000)) * time.Millisecond)
			switch rng.Intn(14) {
			case 0, 1, 2:
				spec := TaskSpec{
					Records:  []string{"r", "s"}[:1+rng.Intn(2)],
					Classes:  2 + rng.Intn(2),
					Quorum:   1 + rng.Intn(2),
					Priority: rng.Intn(3),
				}
				if rng.Intn(2) == 0 {
					// Feature vectors ride the submit op and must survive the
					// round trip bit-exactly (arbitrary float64s included).
					spec.Features = make([][]float64, len(spec.Records))
					for i := range spec.Features {
						spec.Features[i] = []float64{rng.NormFloat64(), rng.Float64() * 1e-7}
					}
				}
				s.Enqueue(spec)
			case 3:
				join()
			case 4, 5:
				s.PickLocal(randWorker(), rng.Intn(2) == 0)
			case 6:
				w := randWorker()
				if tid, _, ok := s.PickSteal(w, rng.Intn(2) == 0); ok {
					if !s.AssignStolen(w, tid) {
						s.ReleaseActive(tid, w)
					}
				}
			case 7, 8:
				// Submit the worker's in-flight assignment; sometimes replay
				// it, which must change nothing durable.
				w := randWorker()
				s.mu.Lock()
				pw := s.workers[w]
				var tid, records int
				if pw != nil && pw.current != 0 {
					tid = pw.current
					if u, ok := s.tasks[tid]; ok {
						records = len(u.spec.Records)
					}
				}
				s.mu.Unlock()
				if tid != 0 && records > 0 {
					labels := make([]int, records)
					for i := range labels {
						labels[i] = rng.Intn(2)
					}
					if outcome, rec, _ := s.AcceptAnswer(tid, w, labels); outcome == SubmitAccepted || outcome == SubmitTerminated {
						s.FinishAssignment(w, tid, rec)
					}
					if rng.Intn(3) == 0 {
						s.AcceptAnswer(tid, w, labels)
					}
				}
			case 9:
				w := randWorker()
				s.Leave(w)
				dropWorker(w)
			case 10:
				// Jump the clock so stale workers expire (clipped wait pay).
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
			case 12:
				// A hybrid-plane auto-finalize: the decision is journaled and
				// must replay byte-exactly, provenance included.
				s.mu.Lock()
				var pend []int
				for id, u := range s.tasks {
					if !u.done {
						pend = append(pend, id)
					}
				}
				s.mu.Unlock()
				sort.Ints(pend)
				if len(pend) > 0 {
					tid := pend[rng.Intn(len(pend))]
					s.mu.Lock()
					u := s.tasks[tid]
					n, cls := len(u.spec.Records), u.spec.Classes
					s.mu.Unlock()
					labels := make([]int, n)
					for i := range labels {
						labels[i] = rng.Intn(cls)
					}
					s.AutoFinalize(tid, labels)
				}
			case 13:
				// A hybrid-plane re-prioritization of a random pending task.
				s.mu.Lock()
				var pend []int
				for id, u := range s.tasks {
					if !u.done {
						pend = append(pend, id)
					}
				}
				s.mu.Unlock()
				sort.Ints(pend)
				if len(pend) > 0 {
					s.Reprioritize(pend[rng.Intn(len(pend))], rng.Intn(5))
				}
			case 11:
				if step < steps/2 && compactions < 3 {
					// Compaction with a short retention window: completed
					// tasks past it demote to tallies; the journal rotates.
					// Confined to the first half (and capped) so plenty of
					// sever points land in the final generation.
					compactions++
					if err := s.CompactInto(st, 20*time.Second); err != nil {
						t.Fatal(err)
					}
				}
			}
			// Keep the maintenance-retired in sync with the driver's view.
			s.mu.Lock()
			kept := workers[:0]
			for _, w := range workers {
				if _, ok := s.workers[w]; ok {
					kept = append(kept, w)
				}
			}
			workers = kept
			s.mu.Unlock()
			checkpoint()
		}
		finalGen := st.Gen()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		// Recovery must be deterministic under the same frozen clock.
		rcfg := cfg
		rcfg.Now = func() time.Time { return now }

		// Sweep the wal as written — binary records — and again as a node
		// upgraded mid-generation leaves it: the first half of the records
		// v1, the rest binary.
		mixed := cloneStoreDir(t, dir, finalGen, -1, -1)
		records := len(walBoundaries(t, filepath.Join(dir, journal.WALName(finalGen)))) - 1
		if err := journaltest.DowngradeWAL(filepath.Join(mixed, journal.WALName(finalGen)), records/2); err != nil {
			t.Fatal(err)
		}
		for _, d := range []string{dir, mixed} {
			totalChecks += severSweep(t, rng, d, finalGen, cps, rcfg)
		}
	}
	if totalChecks < 2000 {
		t.Fatalf("only %d sever points checked, want >= 2000", totalChecks)
	}
	t.Logf("verified %d randomized sever points across %d trials", totalChecks, trials)
}

// severSweep severs the final wal generation of the store in dir at its
// record boundaries, mid-record and with bit flips, checks each recovery
// against the checkpoints, and returns how many sever points it checked.
func severSweep(t *testing.T, rng *rand.Rand, dir string, finalGen uint64, cps []severCheckpoint, rcfg Config) int {
	t.Helper()
	checks := 0
	bounds := walBoundaries(t, filepath.Join(dir, journal.WALName(finalGen)))

	// Phase 1: sever at every record boundary that has a checkpoint in
	// the final generation; recovered state must equal it exactly.
	// (Checkpoints from earlier generations were verified implicitly:
	// compaction folded them into the snapshot this recovery loads.)
	byOps := make(map[uint64][]byte)
	for _, cp := range cps {
		if cp.gen == finalGen {
			byOps[cp.ops] = cp.state
		}
	}
	for ops, want := range byOps {
		if ops >= uint64(len(bounds)) {
			t.Fatalf("%s: checkpoint at %d ops beyond wal's %d records", dir, ops, len(bounds)-1)
		}
		clone := cloneStoreDir(t, dir, finalGen, bounds[ops], -1)
		got := recoverState(t, clone, rcfg)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: sever at boundary %d: recovered state diverged\n got: %s\nwant: %s",
				dir, ops, got, want)
		}
		checks++
	}

	// Phase 2: torn writes. Cutting mid-record (or flipping a byte in
	// the tail record) must recover exactly the previous boundary's
	// state: the torn record is dropped, nothing before it is harmed.
	for k := 0; k+1 < len(bounds); k++ {
		if rng.Intn(2) != 0 {
			continue
		}
		recLen := bounds[k+1] - bounds[k]
		cut := bounds[k] + 1 + rng.Int63n(recLen-1)
		cloneClean := cloneStoreDir(t, dir, finalGen, bounds[k], -1)
		cloneTorn := cloneStoreDir(t, dir, finalGen, cut, -1)
		want := recoverState(t, cloneClean, rcfg)
		if got := recoverState(t, cloneTorn, rcfg); !bytes.Equal(got, want) {
			t.Fatalf("%s: torn write in record %d (cut %d) diverged from boundary state",
				dir, k, cut)
		}
		checks++
		// Bit flip inside the final record of a truncated log.
		flipAt := bounds[k] + rng.Int63n(recLen)
		cloneFlip := cloneStoreDir(t, dir, finalGen, bounds[k+1], flipAt)
		if got := recoverState(t, cloneFlip, rcfg); !bytes.Equal(got, want) {
			t.Fatalf("%s: bit flip at %d in record %d not dropped cleanly",
				dir, flipAt, k)
		}
		checks++
	}
	return checks
}
