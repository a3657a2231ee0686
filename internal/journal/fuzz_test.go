package journal

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzScanner feeds arbitrary bytes to the record reader: truncated,
// bit-flipped and oversized-length inputs must error cleanly — never
// panic, never trust a length prefix with an allocation beyond MaxRecord.
func FuzzScanner(f *testing.F) {
	seedOps := []Op{
		{T: OpSubmit, Task: 1, Records: []string{"r"}, Classes: 2, Quorum: 1},
		{T: OpAnswer, Task: 1, Worker: 2, Labels: []int{0}, Pay: 20000},
	}
	// v1 seeds first: the JSON records earlier builds wrote.
	var seed bytes.Buffer
	WriteHeader(&seed, MagicWAL)
	for _, op := range seedOps {
		p, _ := json.Marshal(op)
		AppendRecord(&seed, p)
	}
	full := seed.Bytes()
	f.Add(full)
	f.Add(full[:len(full)-3]) // torn tail
	f.Add([]byte(MagicWAL))
	f.Add([]byte("CLAMWAL\x02garbage"))
	flipped := append([]byte(nil), full...)
	flipped[len(full)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte(MagicWAL + "\xf0\xff\xff\xff\x00\x00\x00\x00")) // oversized length

	// Binary seeds: the same ops as binary records, appended after the v1
	// ones (an upgraded node's file), torn and flipped.
	mixed := append([]byte(nil), full...)
	for i := range seedOps {
		var rec bytes.Buffer
		AppendRecord(&rec, appendOp(nil, &seedOps[i]))
		mixed = append(mixed, rec.Bytes()...)
	}
	f.Add(mixed)
	f.Add(mixed[:len(mixed)-5])
	bin := append([]byte(MagicWAL), mixed[len(full):]...)
	f.Add(bin)
	binFlipped := append([]byte(nil), bin...)
	binFlipped[len(bin)-4] ^= 0x40
	f.Add(binFlipped)
	if golden, err := os.ReadFile(filepath.Join("testdata", "golden_v2.wal")); err == nil {
		f.Add(golden)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := NewScanner(bytes.NewReader(data), MagicWAL)
		if err != nil {
			return
		}
		records := 0
		for {
			p, err := sc.Scan()
			if err == io.EOF {
				break
			}
			if err != nil {
				// A corrupt tail must leave the offset at a boundary within
				// the input.
				if off := sc.Offset(); off < int64(headerLen) || off > int64(len(data)) {
					t.Fatalf("offset %d outside input of %d bytes", off, len(data))
				}
				break
			}
			DecodeOp(p) // must not panic on any checksummed payload
			records++
			if records > len(data) {
				t.Fatalf("scanned %d records from %d bytes", records, len(data))
			}
		}
	})
}

// FuzzOpCodec feeds arbitrary payloads to the op decoder. No input may
// panic it, and every op it accepts — from a v1 or a binary record — must
// survive a binary round trip unchanged: decode(encode(op)) == op, with
// feature values compared bit for bit, and the re-encoding canonical.
func FuzzOpCodec(f *testing.F) {
	for _, op := range append(goldenOps(), hybridGoldenOps()...) {
		f.Add(appendOp(nil, &op))
		p, _ := json.Marshal(op)
		f.Add(p)
	}
	f.Add([]byte{formatBinary})
	f.Add([]byte{formatBinary, 0x80, 0x80})                                                                        // truncated mask
	f.Add([]byte{formatBinary, 0x80, 0x80, 0x80, 0x80, 0x01, 1, 'x'})                                              // unknown field bits
	f.Add([]byte{formatBinary, byte(hasLabels), 1, 'x', 0xff, 0xff, 0xff, 0xff, 0x0f})                             // label count past the end
	f.Add([]byte{formatBinary, 0x80, 0x20, 1, 'x', 1, 0xff, 0xff, 0xff, 0x0f})                                     // feature row past the end
	f.Add([]byte{formatBinary, byte(hasTask), 1, 'x', 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // varint overflow
	f.Add([]byte(`{"t":"x","labels":[],"records":[],"features":[null,[]]}`))
	f.Add([]byte(`{"t":""}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		op, err := DecodeOp(data)
		if err != nil {
			return
		}
		enc := appendOp(nil, &op)
		back, err := DecodeOp(enc)
		if err != nil {
			t.Fatalf("re-decoding %+v: %v", op, err)
		}
		if !reflect.DeepEqual(withoutFeatures(back), withoutFeatures(op)) || !sameFeatureBits(back.Features, op.Features) {
			t.Fatalf("round trip changed op:\n in %+v\nout %+v", op, back)
		}
		if again := appendOp(nil, &back); !bytes.Equal(again, enc) {
			t.Fatalf("re-encoding is not canonical:\n % x\n % x", enc, again)
		}
	})
}

func withoutFeatures(op Op) Op {
	op.Features = nil
	return op
}

// sameFeatureBits compares feature matrices bit for bit, nil rows and all
// (reflect.DeepEqual would call a NaN unequal to itself and -0 equal to 0).
func sameFeatureBits(a, b [][]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}
