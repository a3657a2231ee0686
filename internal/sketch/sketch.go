// Package sketch implements a mergeable streaming quantile sketch: the
// merging t-digest of Dunning & Ertl, with the arcsine scale function
// k₁(q) = (δ/2π)·asin(2q−1). Centroids near the tails hold few points and
// centroids near the median hold many, so relative error is tightest at
// the extreme quantiles — exactly where a latency p99 lives.
//
// Unlike a single-stream estimator such as P², two digests built on
// disjoint streams merge into one whose quantiles approximate the union
// stream's: the property a sharded fabric needs to serve one true
// fabric-wide percentile from per-shard observations. The digest is
// zero-dependency, allocation-free at steady state (all buffers are
// retained and reused across flushes), and has a compact binary codec
// (codec.go) so sketches can ship over the wire and persist.
package sketch

import (
	"math"
	"slices"
)

// DefaultCompression is the δ parameter used when the caller does not pick
// one. 100 keeps ~δ centroids (a few KB) and holds tail quantiles to well
// under 1% relative error on unimodal streams.
const DefaultCompression = 100

// TDigest is a mergeable quantile sketch. Add buffers points and folds the
// buffer into the centroid list when it fills; Quantile, Merge and the
// codec flush the buffer first. Not safe for concurrent use — Recorder
// provides the striped concurrent front-end.
type TDigest struct {
	compression float64

	// Sorted centroid list (means ascending) and its total weight.
	means   []float64
	weights []float64
	wsum    float64

	// Unmerged unit-weight samples.
	buf []float64

	// Scratch for the merge-compress pass, swapped with means/weights each
	// flush so a settled digest allocates nothing.
	scratchM []float64
	scratchW []float64

	count    int64
	sum      float64
	min, max float64
}

// New returns an empty digest with the given compression (δ); values <= 0
// select DefaultCompression.
func New(compression float64) *TDigest {
	t := &TDigest{}
	t.init(compression)
	return t
}

func (t *TDigest) init(compression float64) {
	if compression <= 0 {
		compression = DefaultCompression
	}
	t.compression = compression
	t.min = math.Inf(1)
	t.max = math.Inf(-1)
}

// bufCap sizes the unmerged-sample buffer: a few multiples of δ amortizes
// the O(δ + buffer) merge pass to O(log buffer) comparisons per point.
func (t *TDigest) bufCap() int {
	n := int(4 * t.compression)
	if n < 64 {
		n = 64
	}
	if n > 1024 {
		n = 1024
	}
	return n
}

// Compression returns the digest's δ parameter.
func (t *TDigest) Compression() float64 { return t.compression }

// Count returns the number of added observations (including merged-in
// digests' observations).
func (t *TDigest) Count() int64 { return t.count }

// Sum returns the sum of all observations.
func (t *TDigest) Sum() float64 { return t.sum }

// Min returns the smallest observation (0 when empty).
func (t *TDigest) Min() float64 {
	if t.count == 0 {
		return 0
	}
	return t.min
}

// Max returns the largest observation (0 when empty).
func (t *TDigest) Max() float64 {
	if t.count == 0 {
		return 0
	}
	return t.max
}

// Add records one observation. Non-finite values are dropped: a poisoned
// division upstream must not destroy the whole sketch.
func (t *TDigest) Add(x float64) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return
	}
	if t.buf == nil {
		t.buf = make([]float64, 0, t.bufCap())
	}
	t.buf = append(t.buf, x)
	t.count++
	t.sum += x
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	if len(t.buf) == cap(t.buf) {
		t.flush()
	}
}

// Merge folds other into t. Both digests' buffers are flushed (other's
// internal representation compacts but its observations are untouched).
func (t *TDigest) Merge(other *TDigest) {
	if other == nil || other.count == 0 {
		return
	}
	other.flush()
	t.flush()
	t.mergeSorted(other.means, other.weights)
	t.count += other.count
	t.sum += other.sum
	if other.min < t.min {
		t.min = other.min
	}
	if other.max > t.max {
		t.max = other.max
	}
}

// flush folds the buffered samples into the centroid list.
func (t *TDigest) flush() {
	if len(t.buf) == 0 {
		return
	}
	slices.Sort(t.buf)
	t.mergeSorted(t.buf, nil)
	t.buf = t.buf[:0]
}

// kOf is the scale function k₁; qOf is its inverse. k₁ spans [-δ/4, δ/4]
// over q ∈ [0, 1], and a centroid may span at most one unit of k — which
// is what bounds both the centroid count (≈ δ) and the per-centroid weight
// near the tails (vanishing, so tail quantiles interpolate between nearly
// raw points).
func (t *TDigest) kOf(q float64) float64 {
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

func (t *TDigest) qOf(k float64) float64 {
	if k >= t.compression/4 {
		return 1
	}
	if k <= -t.compression/4 {
		return 0
	}
	return (math.Sin(2*math.Pi*k/t.compression) + 1) / 2
}

// mergeSorted merges a sorted weighted stream (ws == nil means unit
// weights) with the centroid list and compresses the result in one pass,
// greedily growing each output centroid until it would cross a k-size
// boundary.
func (t *TDigest) mergeSorted(ms, ws []float64) {
	var streamW float64
	if ws == nil {
		streamW = float64(len(ms))
	} else {
		for _, w := range ws {
			streamW += w
		}
	}
	total := t.wsum + streamW
	if total == 0 {
		return
	}
	outM := t.scratchM[:0]
	outW := t.scratchW[:0]

	i, j := 0, 0 // i over t.means, j over ms
	var curM, curW, wSoFar float64
	first := true
	qLimit := t.qOf(t.kOf(0)+1) * total
	for i < len(t.means) || j < len(ms) {
		var m float64
		w := 1.0
		if i < len(t.means) && (j >= len(ms) || t.means[i] <= ms[j]) {
			m, w = t.means[i], t.weights[i]
			i++
		} else {
			m = ms[j]
			if ws != nil {
				w = ws[j]
			}
			j++
		}
		if first {
			curM, curW, first = m, w, false
			continue
		}
		if wSoFar+curW+w <= qLimit {
			// Still inside the current centroid's k-budget: absorb.
			curM += (m - curM) * w / (curW + w)
			curW += w
			continue
		}
		outM = append(outM, curM)
		outW = append(outW, curW)
		wSoFar += curW
		qLimit = t.qOf(t.kOf(wSoFar/total)+1) * total
		curM, curW = m, w
	}
	if !first {
		outM = append(outM, curM)
		outW = append(outW, curW)
	}
	t.means, t.scratchM = outM, t.means[:0]
	t.weights, t.scratchW = outW, t.weights[:0]
	t.wsum = total
}

// Quantile returns the estimated q-th quantile (q clamped to [0, 1]).
// An empty digest reports 0; a single observation is returned exactly at
// every q.
func (t *TDigest) Quantile(q float64) float64 {
	t.flush()
	n := len(t.means)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return t.min
	}
	if q >= 1 {
		return t.max
	}
	if n == 1 {
		// One centroid: with ≤ 1 unit of k it is either a single point or a
		// tight cluster; its mean is the best answer at every interior q.
		return t.means[0]
	}
	target := q * t.wsum
	cum := 0.0
	for i := 0; i < n; i++ {
		center := cum + t.weights[i]/2
		if target < center {
			if i == 0 {
				// Below the first centroid's center: interpolate from min.
				return t.min + (t.means[0]-t.min)*(target/center)
			}
			prev := cum - t.weights[i-1]/2
			frac := (target - prev) / (center - prev)
			return t.means[i-1] + (t.means[i]-t.means[i-1])*frac
		}
		cum += t.weights[i]
	}
	last := cum - t.weights[n-1]/2
	frac := (target - last) / (t.wsum - last)
	return t.means[n-1] + (t.max-t.means[n-1])*frac
}

// Centroids returns the digest's centroid count after a flush (codec and
// test introspection).
func (t *TDigest) Centroids() int {
	t.flush()
	return len(t.means)
}
