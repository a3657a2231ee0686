package sketch

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// exactQuantile computes the sample quantile by sorting (linear
// interpolation between order statistics).
func exactQuantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(i)
	return s[i] + (s[i+1]-s[i])*frac
}

// relErr is |got-want| relative to the stream's scale (guarded so exact
// values near zero do not blow the ratio up).
func relErr(got, want, scale float64) float64 {
	denom := math.Abs(want)
	if denom < 1e-3*scale {
		denom = 1e-3 * scale
	}
	return math.Abs(got-want) / denom
}

// rankOf returns the empirical CDF of v over the stream: the fraction of
// samples ≤ v.
func rankOf(xs []float64, v float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := sort.SearchFloat64s(s, v)
	for i < len(s) && s[i] <= v {
		i++
	}
	return float64(i) / float64(len(s))
}

// checkQuantile asserts the digest's estimate at q is accurate either in
// value space (≤ 5% relative error vs the exact sample quantile) or in rank
// space (the estimate's empirical rank within 0.01 of q). The rank-space
// escape matters at quantile-function discontinuities — a bimodal stream's
// cliff, a heavy tail's extreme order statistics — where the t-digest
// guarantee is on rank, and *any* value between the modes is a correct
// answer.
func checkQuantile(t *testing.T, name string, xs []float64, q, got float64) {
	t.Helper()
	want := exactQuantile(xs, q)
	scale := exactQuantile(xs, 0.99)
	if relErr(got, want, scale) <= 0.05 {
		return
	}
	if r := rankOf(xs, got); math.Abs(r-q) <= 0.01 {
		return
	}
	t.Errorf("%s q=%g: digest %g, exact %g (rel err %.3f, rank %.4f)",
		name, q, got, want, relErr(got, want, scale), rankOf(xs, got))
}

// streams used by the property tests: distinct shapes so the scale
// function's tail behavior is exercised on more than uniform data.
func testStreams(n int) map[string][]float64 {
	out := make(map[string][]float64)
	rng := rand.New(rand.NewSource(1))
	u := make([]float64, n)
	for i := range u {
		u[i] = rng.Float64()
	}
	out["uniform"] = u

	rng = rand.New(rand.NewSource(2))
	e := make([]float64, n)
	for i := range e {
		e[i] = rng.ExpFloat64() * 0.5 // heavy right tail, like latencies
	}
	out["exponential"] = e

	rng = rand.New(rand.NewSource(3))
	l := make([]float64, n)
	for i := range l {
		l[i] = math.Exp(rng.NormFloat64())
	}
	out["lognormal"] = l

	rng = rand.New(rand.NewSource(4))
	b := make([]float64, n)
	for i := range b {
		if rng.Intn(10) == 0 {
			b[i] = 50 + rng.Float64() // 10% slow mode
		} else {
			b[i] = rng.Float64()
		}
	}
	out["bimodal"] = b
	return out
}

func TestQuantileAccuracy(t *testing.T) {
	for name, xs := range testStreams(50000) {
		d := New(DefaultCompression)
		for _, x := range xs {
			d.Add(x)
		}
		for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999} {
			checkQuantile(t, name, xs, q, d.Quantile(q))
		}
		if d.Count() != int64(len(xs)) {
			t.Errorf("%s: count %d, want %d", name, d.Count(), len(xs))
		}
	}
}

func TestQuantileEdges(t *testing.T) {
	d := New(0)
	if got := d.Quantile(0.5); got != 0 {
		t.Fatalf("empty digest quantile = %g, want 0", got)
	}
	d.Add(6)
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got := d.Quantile(q); got != 6 {
			t.Fatalf("single-observation quantile(%g) = %g, want exactly 6", q, got)
		}
	}
	d.Add(math.NaN())
	d.Add(math.Inf(1))
	if d.Count() != 1 {
		t.Fatalf("non-finite values must be dropped; count %d", d.Count())
	}
	if d.Min() != 6 || d.Max() != 6 || d.Sum() != 6 {
		t.Fatalf("min/max/sum = %g/%g/%g, want 6/6/6", d.Min(), d.Max(), d.Sum())
	}
}

// TestMergeMatchesUnion pins the property the fabric scrape depends on:
// shard sketches over disjoint substreams, merged, answer like one sketch
// fed the union stream — and both stay close to the exact sample
// quantiles.
func TestMergeMatchesUnion(t *testing.T) {
	for name, xs := range testStreams(40000) {
		const shards = 8
		parts := make([]*TDigest, shards)
		for i := range parts {
			parts[i] = New(DefaultCompression)
		}
		union := New(DefaultCompression)
		for i, x := range xs {
			parts[i%shards].Add(x)
			union.Add(x)
		}
		merged := New(DefaultCompression)
		for _, p := range parts {
			merged.Merge(p)
		}
		if merged.Count() != int64(len(xs)) {
			t.Fatalf("%s: merged count %d, want %d", name, merged.Count(), len(xs))
		}
		scale := exactQuantile(xs, 0.99)
		for _, q := range []float64{0.5, 0.95, 0.99} {
			m, u := merged.Quantile(q), union.Quantile(q)
			checkQuantile(t, name+"/merged", xs, q, m)
			if e := relErr(m, u, scale); e > 0.05 &&
				(math.Abs(rankOf(xs, m)-q) > 0.01 || math.Abs(rankOf(xs, u)-q) > 0.01) {
				t.Errorf("%s q=%g: merged %g vs union sketch %g (rel err %.3f)", name, q, m, u, e)
			}
		}
	}
}

// TestMergeAssociativity: (a⊕b)⊕c and a⊕(b⊕c) must agree (within sketch
// tolerance) — the fabric merges shards in arbitrary order.
func TestMergeAssociativity(t *testing.T) {
	xs := testStreams(30000)["exponential"]
	third := len(xs) / 3
	build := func(lo, hi int) *TDigest {
		d := New(DefaultCompression)
		for _, x := range xs[lo:hi] {
			d.Add(x)
		}
		return d
	}
	// (a⊕b)⊕c
	left := build(0, third)
	left.Merge(build(third, 2*third))
	left.Merge(build(2*third, len(xs)))
	// a⊕(b⊕c)
	bc := build(third, 2*third)
	bc.Merge(build(2*third, len(xs)))
	right := build(0, third)
	right.Merge(bc)

	if left.Count() != right.Count() {
		t.Fatalf("counts diverge: %d vs %d", left.Count(), right.Count())
	}
	scale := exactQuantile(xs, 0.99)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99} {
		l, r := left.Quantile(q), right.Quantile(q)
		if e := relErr(l, r, scale); e > 0.05 {
			t.Errorf("q=%g: groupings diverge: %g vs %g (rel err %.3f)", q, l, r, e)
		}
	}
}

func TestCompressionBoundsCentroids(t *testing.T) {
	d := New(100)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		d.Add(rng.NormFloat64())
	}
	if n := d.Centroids(); n > 200 {
		t.Fatalf("200k points compressed to %d centroids, want ≤ 2·δ", n)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(DefaultCompression)
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				r.Record(rng.Float64())
			}
		}(int64(w))
	}
	wg.Wait()
	if n := r.Count(); n != workers*per {
		t.Fatalf("recorder count %d, want %d", n, workers*per)
	}
	snap := r.Snapshot()
	if snap.Count() != workers*per {
		t.Fatalf("snapshot count %d, want %d", snap.Count(), workers*per)
	}
	if p50 := snap.Quantile(0.5); p50 < 0.4 || p50 > 0.6 {
		t.Fatalf("uniform p50 = %g, want ≈ 0.5", p50)
	}
}
