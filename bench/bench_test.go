package main

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/server/servertest"
)

// smokeOpts cuts a run to a fraction of a second per phase over a
// 400-task backlog: enough to boot every topology, move real traffic
// through it and verify the outputs.
var smokeOpts = runOpts{seconds: 0.4, setups: 1, scale: 0.02}

// TestWorkloadsSmoke boots every workload, requires exactly the declared
// end-to-end metric names with finite values and a clean verification,
// and wraps each in VerifyNone so a goroutine leaked by one workload
// cannot bleed CPU into the next.
func TestWorkloadsSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(spec.Workloads), len(workloads))
	}
	t.Setenv("CLAMSHELL_BENCH_WORK", t.TempDir())
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, w.name)
		}
		t.Run(w.name, func(t *testing.T) {
			defer servertest.VerifyNone(t)()
			res := runUntraced(spec, w, 7, smokeOpts)
			for _, p := range res.Problems {
				t.Errorf("problem: %s", p)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if err := checkNames(spec, res); err != nil {
				t.Error(err)
			}
			if res.Metrics["ops_per_s"].Value <= 0 || res.Metrics["setup_s"].Value <= 0 {
				t.Errorf("no throughput or set-up time measured: %+v", res.Metrics)
			}
		})
	}
}

// TestTracedSmoke runs the traced pass (phases, probes, ledger, span file)
// on the fastest workload and requires exactly the declared per-layer
// names.
func TestTracedSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("CLAMSHELL_BENCH_WORK", t.TempDir())
	defer servertest.VerifyNone(t)()
	w, _ := workloadByName("wire_mem")
	opts := smokeOpts
	opts.seconds = 1 // the traced pass takes 3/16 of it per phase
	res := runTraced(spec, w, 7, opts, filepath.Join(t.TempDir(), "spans.json"))
	for _, p := range res.Problems {
		t.Errorf("problem: %s", p)
	}
	if err := checkNames(spec, res); err != nil {
		t.Error(err)
	}
	if res.Extra["spans_written"].Value == 0 {
		t.Error("no spans written")
	}
	if v := res.Metrics["ledger.e2e_us_per_op"].Value; v <= 0 {
		t.Errorf("ledger.e2e_us_per_op = %v", v)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, ok := percentile(xs, 0.99); ok {
		t.Error("p99 reported from 999 samples (9 beyond it)")
	}
	if v, ok := percentile(xs, 0.90); !ok || v != 900 {
		t.Errorf("p90 of 1..999 = %v, %v; want 900, true", v, ok)
	}
	xs = append(xs, 1000)
	if v, ok := percentile(xs, 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if v, ok := percentile(xs[:5], 0.5); !ok || v != 3 {
		t.Errorf("p50 of 1..5 = %v, %v; want 3, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of nothing reported")
	}
	if v, q := tailOf(xs[:150]); q != 0.9 || v != 135 {
		t.Errorf("tail of 150 samples = %v at q=%v; want 135 at 0.9", v, q)
	}
}

func TestPacerChargesStallFromDueTime(t *testing.T) {
	p := newPacer(1000, 10*time.Millisecond)
	if due := p.sent(1000); due != 1000 {
		t.Fatalf("first send due at %d, want 1000", due)
	}
	// The second send stalls 50 ms: it is still due 10 ms after the first,
	// and the stall is on the lateness record.
	stalled := int64(1000 + 10e6 + 50e6)
	if due := p.sent(stalled); due != 1000+10e6 {
		t.Errorf("stalled send due at %d, want %d", due, int64(1000+10e6))
	}
	// The sends behind it are already overdue: the schedule does not slip.
	if due := p.due(); due != 1000+20e6 || due >= stalled {
		t.Errorf("third send due at %d, want %d (before the stall ended)", due, int64(1000+20e6))
	}
	if len(p.lateMs) != 2 || p.lateMs[0] != 0 || p.lateMs[1] != 50 {
		t.Errorf("lateness record %v, want [0 50]", p.lateMs)
	}
	tail, _ := tailOf(sortedCopy(p.lateMs))
	if tail != 0 { // two samples support only the median (nearest rank: the first)
		t.Errorf("tail of two samples = %v", tail)
	}
}

func TestWindowRateIsTheMedianWindow(t *testing.T) {
	// Five seconds at 100 events/s, except that the third second stalls
	// after its first three events.
	w := newWindowRate(5e9)
	w.add(-1, 1000) // before the phase: dropped
	for sec := int64(0); sec < 5; sec++ {
		n := int64(100)
		if sec == 2 {
			n = 3
		}
		for i := int64(1); i <= n; i++ {
			w.add(sec*1e9+i*1e7, 1)
		}
	}
	w.add(5e9, 1000) // after the phase: dropped
	if got := w.perSecond(); math.Abs(got-100) > 1 {
		t.Errorf("median window = %v, want about 100 (the mean would be about 81)", got)
	}
	if got := w.counts[2]; got > 5 {
		t.Errorf("stalled window holds %v events, want about 3", got)
	}

	// A slow steady stream is not quantized to whole events per window:
	// one event every 70 ms is 14.29/s, not 14 or 15.
	slow := newWindowRate(4e9)
	for off := int64(70e6); off < 4e9; off += 70e6 {
		slow.add(off, 1)
	}
	if got := slow.perSecond(); math.Abs(got-1e9/70e6) > 0.01 {
		t.Errorf("slow stream rate = %v, want %v", got, 1e9/70e6)
	}

	// A phase of 2.5 s has a half-length last window, scaled to a rate.
	h := newWindowRate(2.5e9)
	for off := int64(1e7); off <= 2.5e9; off += 1e7 { // 100/s throughout
		h.add(off, 1)
	}
	if got := h.perSecond(); math.Abs(got-100) > 1 {
		t.Errorf("median with a partial window = %v, want about 100", got)
	}
	if got := h.counts[2]; math.Abs(got-50) > 1 {
		t.Errorf("half window holds %v events, want about 50", got)
	}

	sum := func(w *windowRate) (n float64) {
		for _, c := range w.counts {
			n += c
		}
		return n
	}
	other := newWindowRate(5e9)
	other.add(2e9+5e8, 10)
	before := sum(w)
	w.merge(other)
	if got := sum(w) - before; math.Abs(got-10) > 1e-9 {
		t.Errorf("merging a recorder of 10 events added %v", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if s := relSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(s-1) > 1e-12 {
		t.Errorf("relative spread = %v, want 1", s)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b := streamHash(42, w), streamHash(42, w)
		if a != b {
			t.Errorf("%s: seed 42 hashed to %x then %x", w.name, a, b)
		}
		if c := streamHash(43, w); c == a {
			t.Errorf("%s: seeds 42 and 43 generate the same inputs", w.name)
		}
	}
	w, _ := workloadByName("wire_mem")
	g1, g2 := newTaskGen(5, 1, w), newTaskGen(5, 1, w)
	for i := 0; i < 100; i++ {
		s1, s2 := g1.next(), g2.next()
		if len(s1.Records) != len(s2.Records) || s1.Records[0] != s2.Records[0] || s1.Priority != s2.Priority {
			t.Fatalf("task %d differs between two generators of one seed: %+v vs %+v", i, s1, s2)
		}
		if n := len(s1.Records); n < 1 || n > 5 || s1.Priority < 1 || s1.Priority > 3 || s1.Quorum != 3 {
			t.Fatalf("task %d out of shape: %+v", i, s1)
		}
		if got := expectBits(s1.Records); got>>len(s1.Records) != 0 {
			t.Fatalf("expected consensus %b has bits beyond %d records", got, len(s1.Records))
		}
	}
}

func TestTrackerSurvivesAckBeforeRegistration(t *testing.T) {
	tk := newTracker()
	w, _ := workloadByName("wire_mem")
	spec := newTaskGen(1, 0, w).batch(1)
	// Two answers land before the enqueuing driver has seen the task's id.
	tk.accepted(9, 150)
	tk.accepted(9, 250)
	if got := tk.enqueued([]int{9}, spec, 0, 100, true); len(got) != 0 {
		t.Fatalf("consensus %v reported below quorum", got)
	}
	if tk.openTotal() != 1 {
		t.Fatalf("open = %d, want 1", tk.openTotal())
	}
	ns, completed, timed := tk.accepted(9, 400)
	if !completed || !timed || ns != 300 {
		t.Errorf("third ack: latency %d completed %v timed %v; want 300 true true", ns, completed, timed)
	}
	if tk.openTotal() != 0 || len(tk.early) != 0 {
		t.Errorf("open = %d, early = %d after quorum", tk.openTotal(), len(tk.early))
	}
}
