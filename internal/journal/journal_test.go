package journal

import (
	"bytes"
	"encoding/binary"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/server/servertest"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenOps is one op of every type with fixed contents. Their v1 (JSON)
// records are pinned by testdata/golden.wal, their binary records by
// testdata/golden_v2.wal; both must decode to exactly these ops forever.
func goldenOps() []Op {
	return []Op{
		{T: OpSubmit, At: 1442750400000000000, Task: 1,
			Records: []string{"label this", "and this"}, Classes: 3, Quorum: 2, Priority: 1},
		{T: OpJoin, At: 1442750401000000000, Worker: 1, Name: "worker-a"},
		{T: OpAssign, At: 1442750402000000000, Task: 1, Worker: 1},
		{T: OpAnswer, At: 1442750403000000000, Task: 1, Worker: 1, Labels: []int{0, 2}, Pay: 40000},
		{T: OpAnswer, At: 1442750404000000000, Task: 1, Worker: 2, Terminated: true, Pay: 40000},
		{T: OpWaitPay, At: 1442750405000000000, Worker: 1, Pay: 2500},
		{T: OpRetire, At: 1442750406000000000, Worker: 2},
		{T: OpLeave, At: 1442750407000000000, Worker: 2, Reason: "retire"},
	}
}

// encodeWAL returns a wal file holding the binary records of ops.
func encodeWAL(t *testing.T, ops []Op) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteHeader(&buf, MagicWAL); err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if err := AppendRecord(&buf, appendOp(nil, &ops[i])); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// scanPayloads returns the record payloads of an intact wal file.
func scanPayloads(t *testing.T, data []byte) [][]byte {
	t.Helper()
	sc, err := NewScanner(bytes.NewReader(data), MagicWAL)
	if err != nil {
		t.Fatal(err)
	}
	var payloads [][]byte
	for {
		p, err := sc.Scan()
		if err == io.EOF {
			return payloads
		}
		if err != nil {
			t.Fatalf("scan after %d records: %v", len(payloads), err)
		}
		payloads = append(payloads, p)
	}
}

func scanOps(t *testing.T, data []byte) []Op {
	t.Helper()
	var ops []Op
	for _, p := range scanPayloads(t, data) {
		op, err := DecodeOp(p)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
	return ops
}

// readV1Fixture reads a v1 golden wal, checking that every record in it
// really is a JSON one.
func readV1Fixture(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range scanPayloads(t, data) {
		if p[0] != '{' {
			t.Fatalf("%s record %d is not a v1 record: % x", name, i, p[:1])
		}
	}
	return data
}

// TestGoldenWAL pins the v1 record format: testdata/golden.wal, written by
// the JSON encoder of earlier builds, must decode to exactly the golden ops
// forever. The fixture is read-only; nothing writes v1 records anymore.
func TestGoldenWAL(t *testing.T) {
	if ops := scanOps(t, readV1Fixture(t, "golden.wal")); !reflect.DeepEqual(ops, goldenOps()) {
		t.Fatalf("golden.wal decoded to %+v", ops)
	}
}

// TestGoldenBinaryWAL pins the binary record format: the checked-in
// fixture must decode to exactly the golden and hybrid ops, and encoding
// them must reproduce it byte for byte. Failing here means the binary
// encoding changed, which old journals cannot survive: a change needs a
// new format byte, not a fixture update.
func TestGoldenBinaryWAL(t *testing.T) {
	path := filepath.Join("testdata", "golden_v2.wal")
	ops := append(goldenOps(), hybridGoldenOps()...)
	want := encodeWAL(t, ops)
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("golden_v2.wal drifted from the current encoding:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}
	if back := scanOps(t, got); !reflect.DeepEqual(back, ops) {
		t.Fatalf("golden_v2.wal decoded to %+v", back)
	}
}

// TestMixedWAL replays a wal the way a node upgraded in place leaves it:
// the v1 records it wrote before the upgrade, then binary records appended
// to the same generation after it. Recovery must return every op in order,
// and the records on disk must be v1 up to the upgrade and binary after.
func TestMixedWAL(t *testing.T) {
	dir := t.TempDir()
	v1 := readV1Fixture(t, "golden.wal")
	if err := os.WriteFile(filepath.Join(dir, WALName(1)), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	st, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec.Ops, goldenOps()) {
		t.Fatalf("v1 wal recovered %+v", rec.Ops)
	}
	for _, op := range hybridGoldenOps() {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, rec2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	want := append(goldenOps(), hybridGoldenOps()...)
	if rec2.Truncated || !reflect.DeepEqual(rec2.Ops, want) {
		t.Fatalf("mixed wal recovered truncated=%v ops=%+v", rec2.Truncated, rec2.Ops)
	}
	data, err := os.ReadFile(filepath.Join(dir, WALName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, v1) {
		t.Fatal("appending rewrote the v1 records")
	}
	for i, p := range scanPayloads(t, data) {
		if (p[0] == formatBinary) != (i >= len(goldenOps())) {
			t.Fatalf("record %d has kind byte %#x", i, p[0])
		}
	}
}

// TestAppendAllocationFree pins the journal's share of the hot path: in
// group-commit mode — the fabric's default — appending an answer allocates
// nothing once the store's record buffer has grown to fit.
func TestAppendAllocationFree(t *testing.T) {
	st, _, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// A long interval keeps the group-commit fsync, which records its lag
	// into a sketch, out of the measured window.
	st.SetSync(SyncGroup, time.Hour)
	op := Op{T: OpAnswer, At: 1442750403000000000, Task: 17, Worker: 4, Labels: []int{0, 2, 1}, Pay: 60000}
	if allocs := testing.AllocsPerRun(200, func() {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Store.Append allocates %.1f times per answer op, want 0", allocs)
	}
}

// An unknown format version (wrong magic byte) must be rejected with a
// clear error, not misread.
func TestUnknownVersionRejected(t *testing.T) {
	data := encodeWAL(t, goldenOps())
	data[7] = 0x02 // bump the version byte in the magic
	if _, err := NewScanner(bytes.NewReader(data), MagicWAL); err == nil {
		t.Fatal("scanner accepted an unknown format version")
	}
	if _, err := NewScanner(bytes.NewReader(data), MagicRetained); err == nil {
		t.Fatal("scanner accepted a wal file as a retained log")
	}
}

// A length prefix beyond MaxRecord must error before allocating.
func TestOversizedLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	WriteHeader(&buf, MagicWAL)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 0xFFFFFFF0)
	buf.Write(hdr[:])
	sc, err := NewScanner(bytes.NewReader(buf.Bytes()), MagicWAL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Scan(); err != ErrTooLarge {
		t.Fatalf("scan error = %v, want ErrTooLarge", err)
	}
}

// Torn tails — a record cut at any byte — must yield the intact prefix.
func TestTornTailTruncates(t *testing.T) {
	ops := goldenOps()
	full := encodeWAL(t, ops)
	sc, _ := NewScanner(bytes.NewReader(full), MagicWAL)
	var bounds []int64
	bounds = append(bounds, sc.Offset())
	for {
		if _, err := sc.Scan(); err != nil {
			break
		}
		bounds = append(bounds, sc.Offset())
	}
	if len(bounds) != len(ops)+1 {
		t.Fatalf("found %d boundaries, want %d", len(bounds), len(ops)+1)
	}
	for k := 0; k < len(ops); k++ {
		for _, cut := range []int64{bounds[k], bounds[k] + 1, (bounds[k] + bounds[k+1]) / 2, bounds[k+1] - 1} {
			got := scanTornOps(t, full[:cut])
			if !reflect.DeepEqual(got, ops[:k]) {
				t.Fatalf("cut at %d: recovered %d ops, want %d", cut, len(got), k)
			}
		}
	}
}

// scanTornOps scans a possibly-torn buffer, returning the intact prefix.
func scanTornOps(t *testing.T, data []byte) []Op {
	t.Helper()
	sc, err := NewScanner(bytes.NewReader(data), MagicWAL)
	if err != nil {
		t.Fatal(err)
	}
	ops := []Op{}
	for {
		p, err := sc.Scan()
		if err != nil {
			return ops
		}
		op, err := DecodeOp(p)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
	}
}

// TestStoreRoundTrip drives a store through the full lifecycle: append,
// rotate+commit, append more, close, reopen — the recovered state must be
// the committed snapshot plus the post-rotation op suffix plus the
// retained payloads.
func TestStoreRoundTrip(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	dir := t.TempDir()
	st, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snapshot != nil || len(rec.Ops) != 0 || len(rec.Retained) != 0 {
		t.Fatalf("fresh store recovered %+v", rec)
	}
	ops := goldenOps()
	for _, op := range ops[:4] {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	gen, err := st.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	snap := []byte(`{"live":"state"}`)
	tally := [][]byte{[]byte(`{"id":7}`), []byte(`{"id":9}`)}
	if err := st.Commit(gen, snap, tally); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[4:] {
		if err := st.Append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The superseded generation must be gone.
	if _, err := os.Stat(filepath.Join(dir, WALName(gen-1))); !os.IsNotExist(err) {
		t.Fatalf("wal-%d survived compaction (err=%v)", gen-1, err)
	}

	st2, rec2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if !bytes.Equal(rec2.Snapshot, snap) {
		t.Fatalf("recovered snapshot %q", rec2.Snapshot)
	}
	if !reflect.DeepEqual(rec2.Ops, ops[4:]) {
		t.Fatalf("recovered ops %+v, want %+v", rec2.Ops, ops[4:])
	}
	if len(rec2.Retained) != 2 || !bytes.Equal(rec2.Retained[0], tally[0]) || !bytes.Equal(rec2.Retained[1], tally[1]) {
		t.Fatalf("recovered retained %q", rec2.Retained)
	}
	if rec2.Truncated {
		t.Fatal("clean close reported a torn tail")
	}
}

// A crash between Rotate and Commit leaves two wal generations and the old
// manifest; recovery must replay both in order.
func TestStoreRecoverAcrossUncommittedRotation(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ops := goldenOps()
	for _, op := range ops[:3] {
		st.Append(op)
	}
	if _, err := st.Rotate(); err != nil {
		t.Fatal(err)
	}
	// "Crash" before Commit: append post-rotation ops, never commit.
	for _, op := range ops[3:] {
		st.Append(op)
	}
	st.Close()

	st2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if rec.Snapshot != nil {
		t.Fatalf("uncommitted rotation produced a snapshot: %q", rec.Snapshot)
	}
	if !reflect.DeepEqual(rec.Ops, ops) {
		t.Fatalf("recovered %d ops across generations, want %d", len(rec.Ops), len(ops))
	}
}

// A torn tail on disk must be truncated at recovery so subsequent appends
// extend the intact prefix.
func TestStoreTruncatesTornTailOnDisk(t *testing.T) {
	dir := t.TempDir()
	st, _, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ops := goldenOps()
	for _, op := range ops {
		st.Append(op)
	}
	st.Close()

	walPath := filepath.Join(dir, WALName(1))
	fi, _ := os.Stat(walPath)
	if err := os.Truncate(walPath, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	st2, rec, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Truncated {
		t.Fatal("torn tail not reported")
	}
	if len(rec.Ops) != len(ops)-1 {
		t.Fatalf("recovered %d ops, want %d", len(rec.Ops), len(ops)-1)
	}
	// Appending after recovery must yield a clean log.
	if err := st2.Append(ops[len(ops)-1]); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, rec3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if rec3.Truncated || !reflect.DeepEqual(rec3.Ops, ops) {
		t.Fatalf("post-truncation append did not heal the log: truncated=%v ops=%d", rec3.Truncated, len(rec3.Ops))
	}
}
