package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile
// (choosing-metrics: "the highest percentile that has at least ten
// samples beyond it"), so a p99 needs 1000 samples and a p90 needs 100.
const minBeyond = 10

// percentile returns the q-quantile of sorted by nearest rank. ok is false
// when fewer than minBeyond samples lie beyond it, or there are none.
func percentile(sorted []float64, q float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if q > 0.5 && n-rank < minBeyond {
		return 0, false
	}
	return sorted[rank-1], true
}

// tailOf reports the highest of p99, p90 and p50 that sorted supports,
// with the quantile it used.
func tailOf(sorted []float64) (v, q float64) {
	for _, q := range []float64{0.99, 0.90} {
		if v, ok := percentile(sorted, q); ok {
			return v, q
		}
	}
	v, _ = percentile(sorted, 0.5)
	return v, 0.5
}

// median sorts xs in place and returns its middle value (mean of the two
// middle values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// windowRate is the throughput estimator of the closed-loop phases: events
// are counted into one-second windows and the rate is the median window,
// so a stall (GC, compaction, fsync) that empties one window moves the
// estimate less than it would move a whole-phase mean.
//
// An event's count is spread evenly over the time since the recorder's
// previous event, so a window's count is the interpolated cumulative count
// at its end minus that at its start — a real number. Counting whole
// events per window instead quantizes a slow workload's rate (routed_repl
// completes about 14 answers a second: 13, 14 or 15 per window) into steps
// of 7 %, and reads exactly the same on most runs.
type windowRate struct {
	counts []float64
	lastNs int64 // length of the final window (the others are one second)
	prevNs int64 // offset of the previous event (the phase start before the first)
}

// newWindowRate covers a phase of totalNs with one-second windows; a
// remainder becomes a shorter last window.
func newWindowRate(totalNs int64) *windowRate {
	n := int((totalNs + 1e9 - 1) / 1e9)
	w := &windowRate{counts: make([]float64, max(n, 1)), lastNs: 1e9}
	if rem := totalNs % 1e9; rem > 0 {
		w.lastNs = rem
	}
	return w
}

// add counts n events completed at offset ns from the phase start. Offsets
// must not decrease; events outside the phase are dropped.
func (w *windowRate) add(offsetNs int64, n float64) {
	last := len(w.counts) - 1
	if offsetNs < 0 || offsetNs/1e9 > int64(last) {
		return
	}
	from, gap := w.prevNs, offsetNs-w.prevNs
	w.prevNs = offsetNs
	if gap <= 0 {
		w.counts[offsetNs/1e9] += n
		return
	}
	for i := from / 1e9; i <= offsetNs/1e9; i++ {
		lo, hi := max(from, i*1e9), min(offsetNs, (i+1)*1e9)
		w.counts[i] += n * float64(hi-lo) / float64(gap)
	}
}

// merge adds another recorder's windows into w.
func (w *windowRate) merge(o *windowRate) {
	for i := range w.counts {
		w.counts[i] += o.counts[i]
	}
}

// perSecond is the median of the windows' rates.
func (w *windowRate) perSecond() float64 {
	rates := append([]float64(nil), w.counts...)
	rates[len(rates)-1] *= 1e9 / float64(w.lastNs)
	return median(rates)
}

// latWindowNs is the width of the windows latency samples are grouped in.
const latWindowNs = 100e6

// latSeries is a latency series with the 100 ms window each sample fell in.
type latSeries struct {
	v   []float64
	win []uint16
}

// add records v at offset ns from the phase's measured start.
func (l *latSeries) add(offsetNs int64, v float64) {
	l.v = append(l.v, v)
	l.win = append(l.win, uint16(min(max(offsetNs/latWindowNs, 0), 1<<16-1)))
}

func (l *latSeries) merge(o latSeries) {
	l.v = append(l.v, o.v...)
	l.win = append(l.win, o.win...)
}

// typical is the p50 the harness reports: the median of the 100 ms
// windows' medians — the latency estimator that matches windowRate. On a
// journaled node a compaction holds each shard for a few hundred ms every
// 2 s and queues a burst of slow samples behind it; the plain median then
// sits on the knee between the two modes and swings by a fifth from run
// to run with the share of samples the stalls caught. The median window is
// the latency of a typical moment as long as stalls cover less than half
// the time; the stalls themselves stay visible in the tails. With a
// steady latency, or fewer samples than windows, it is the plain median.
func (l latSeries) typical() float64 {
	byWin := map[uint16][]float64{}
	for i, v := range l.v {
		byWin[l.win[i]] = append(byWin[l.win[i]], v)
	}
	meds := make([]float64, 0, len(byWin))
	for _, vs := range byWin {
		meds = append(meds, median(vs))
	}
	return median(meds)
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the benchmark driver uses to judge
// run-to-run spread; fewer than two values yield the value itself.
func quartiles(values []float64) (q1, q2, q3 float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// relSpread is the interquartile distance as a share of the median.
func relSpread(values []float64) float64 {
	q1, q2, q3 := quartiles(values)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
