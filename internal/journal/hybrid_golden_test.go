package journal

import (
	"bytes"
	"reflect"
	"testing"
)

// hybridGoldenOps is one op of every hybrid learning-plane type with fixed
// contents, plus a feature-carrying submit. Their v1 records are pinned by
// testdata/golden_hybrid.wal (the base op set keeps its own fixture,
// golden.wal, untouched — the hybrid ops are additive); their binary
// records ride in testdata/golden_v2.wal after the base ops.
func hybridGoldenOps() []Op {
	return []Op{
		{T: OpSubmit, At: 1442750500000000000, Task: 9,
			Records: []string{"point-1", "point-2"}, Classes: 2, Quorum: 3, Priority: 2,
			Features: [][]float64{{0.25, -1.5, 3.75}, {1e-9, 2.5, -0.125}}},
		{T: OpAutoFinal, At: 1442750501000000000, Task: 9, Labels: []int{1, 0}},
		{T: OpRepri, At: 1442750502000000000, Task: 10, Priority: 4},
	}
}

// TestGoldenHybridWAL pins the v1 hybrid op records: the read-only fixture
// must decode to exactly the hybrid golden ops forever.
func TestGoldenHybridWAL(t *testing.T) {
	if ops := scanOps(t, readV1Fixture(t, "golden_hybrid.wal")); !reflect.DeepEqual(ops, hybridGoldenOps()) {
		t.Fatalf("golden_hybrid.wal decoded to %+v", ops)
	}
}

// Feature vectors must survive the encode/decode round trip bit-exactly:
// replay determinism depends on it. Exercise values that stress float
// formatting (subnormals, negative zero, the largest finite value, long
// decimals) — binary records carry the raw bits, so all of them do.
func TestFeatureRoundTripExact(t *testing.T) {
	in := Op{T: OpSubmit, Task: 1, Records: []string{"r"}, Classes: 2, Quorum: 1,
		Features: [][]float64{{0.1, 1.0 / 3.0, 5e-324, 1.7976931348623157e308, negZero(), 42}}}
	p := appendOp(nil, &in)
	out, err := DecodeOp(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) || !sameFeatureBits(in.Features, out.Features) {
		t.Fatalf("feature round trip changed op:\n in %+v\nout %+v", in, out)
	}
	if p2 := appendOp(nil, &out); !bytes.Equal(p, p2) {
		t.Fatalf("re-encoding decoded op changed bytes:\n %q\n %q", p, p2)
	}
}

func negZero() float64 {
	z := 0.0
	return -z
}
