package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// Op is one journaled shard mutation. The set mirrors the retainer-pool
// protocol's durable events; ops that only touch live worker sessions
// (assign, leave, expire) are recorded for the audit trail but have no
// effect on replay, because worker sessions never survive a restart —
// exactly as with snapshots, their in-flight assignments fall back to the
// queue.
//
// Pay deltas are journaled in raw metrics.Cost units (int64 micro-dollars)
// as computed at emission time, so replay reconstructs the ledger
// bit-exactly even if pay rates change between the run and the recovery.
//
// The json tags describe v1 records, which are still read (see DecodeOp).
type Op struct {
	T  string `json:"t"`            // op type, one of the Op* constants
	At int64  `json:"at,omitempty"` // emission time, unix nanoseconds

	Task   int    `json:"task,omitempty"`
	Worker int    `json:"worker,omitempty"`
	Name   string `json:"name,omitempty"`   // join: worker name
	Reason string `json:"reason,omitempty"` // leave: "leave" | "expire" | "retire"

	// submit: the task spec (defaults already applied). Features, when
	// present, is one vector per record; both record kinds carry float64s
	// bit-exactly, so replay is byte-deterministic.
	Records  []string    `json:"records,omitempty"`
	Classes  int         `json:"classes,omitempty"`
	Quorum   int         `json:"quorum,omitempty"`
	Priority int         `json:"priority,omitempty"` // also: repri's new priority
	Features [][]float64 `json:"features,omitempty"`

	// answer: the label vector, the termination flag and the pay delta.
	// autofinal reuses Labels for the model-provided answer.
	Labels     []int `json:"labels,omitempty"`
	Terminated bool  `json:"terminated,omitempty"`
	Pay        int64 `json:"pay,omitempty"` // micro-dollars; also used by waitpay
}

// Op types.
const (
	OpSubmit  = "submit"  // task accepted into the queue
	OpJoin    = "join"    // worker admitted (advances the id high-water mark)
	OpAssign  = "assign"  // task handed to a worker (audit only)
	OpAnswer  = "answer"  // answer accepted or terminated; carries work pay
	OpLeave   = "leave"   // worker removed (audit only; Reason says why)
	OpRetire  = "retire"  // worker retired by maintenance (durable blocklist)
	OpWaitPay = "waitpay" // wait-pay accrual settled onto the ledger

	// Hybrid learning-plane ops. Both are decisions made off the shard lock
	// by the model plane and journaled on the owning shard, so replay
	// reconstructs the same finalization and priority state byte-exactly
	// without re-running any model.
	OpAutoFinal = "autofinal" // task finalized with a model-provided answer
	OpRepri     = "repri"     // pending task re-bucketed to a new priority
)

// An op record's payload is one of two kinds, told apart by its first
// byte:
//
//   - v1: a JSON object, written by earlier builds and still read so an
//     upgraded node recovers the journal it already has.
//   - binary: formatBinary, a uvarint presence mask with one bit per field
//     below, the type as a length-prefixed string, then each present field
//     in bit order. Integers are zigzag varints; strings and slices are a
//     uvarint length and the elements; a feature row is a uvarint
//     length+1 (0 marks a nil row) and the raw little-endian float64 bits.
//
// Every record written now is binary. A field is present when it is
// non-zero or, for a slice, non-nil, so a decoded op of either kind
// re-encodes to a record that decodes to the same op.
const formatBinary byte = 0x02 // no JSON document starts with a control byte

// Presence bits, ordered so that every op but submit, join and leave has a
// one-byte mask.
const (
	hasAt uint64 = 1 << iota
	hasTask
	hasWorker
	hasLabels
	hasPay
	hasTerminated
	hasPriority
	hasName
	hasReason
	hasRecords
	hasClasses
	hasQuorum
	hasFeatures

	knownFields = hasFeatures<<1 - 1
)

func presence(present bool, bit uint64) uint64 {
	if present {
		return bit
	}
	return 0
}

// appendOp appends op's binary record payload to b. It allocates only when
// b has to grow.
func appendOp(b []byte, op *Op) []byte {
	mask := presence(op.At != 0, hasAt) | presence(op.Task != 0, hasTask) |
		presence(op.Worker != 0, hasWorker) | presence(op.Labels != nil, hasLabels) |
		presence(op.Pay != 0, hasPay) | presence(op.Terminated, hasTerminated) |
		presence(op.Priority != 0, hasPriority) | presence(op.Name != "", hasName) |
		presence(op.Reason != "", hasReason) | presence(op.Records != nil, hasRecords) |
		presence(op.Classes != 0, hasClasses) | presence(op.Quorum != 0, hasQuorum) |
		presence(op.Features != nil, hasFeatures)

	b = append(b, formatBinary)
	b = binary.AppendUvarint(b, mask)
	b = appendString(b, op.T)
	if mask&hasAt != 0 {
		b = binary.AppendVarint(b, op.At)
	}
	if mask&hasTask != 0 {
		b = binary.AppendVarint(b, int64(op.Task))
	}
	if mask&hasWorker != 0 {
		b = binary.AppendVarint(b, int64(op.Worker))
	}
	if mask&hasLabels != 0 {
		b = binary.AppendUvarint(b, uint64(len(op.Labels)))
		for _, l := range op.Labels {
			b = binary.AppendVarint(b, int64(l))
		}
	}
	if mask&hasPay != 0 {
		b = binary.AppendVarint(b, op.Pay)
	}
	if mask&hasPriority != 0 {
		b = binary.AppendVarint(b, int64(op.Priority))
	}
	if mask&hasName != 0 {
		b = appendString(b, op.Name)
	}
	if mask&hasReason != 0 {
		b = appendString(b, op.Reason)
	}
	if mask&hasRecords != 0 {
		b = binary.AppendUvarint(b, uint64(len(op.Records)))
		for _, r := range op.Records {
			b = appendString(b, r)
		}
	}
	if mask&hasClasses != 0 {
		b = binary.AppendVarint(b, int64(op.Classes))
	}
	if mask&hasQuorum != 0 {
		b = binary.AppendVarint(b, int64(op.Quorum))
	}
	if mask&hasFeatures != 0 {
		b = binary.AppendUvarint(b, uint64(len(op.Features)))
		for _, row := range op.Features {
			if row == nil {
				b = append(b, 0)
				continue
			}
			b = binary.AppendUvarint(b, uint64(len(row))+1)
			for _, v := range row {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// DecodeOp parses a journal record payload of either kind. An op with an
// empty type field is rejected; unknown types are preserved (forward
// compatibility is the replayer's call).
func DecodeOp(payload []byte) (Op, error) {
	var op Op
	var err error
	if len(payload) > 0 && payload[0] == formatBinary {
		op, err = decodeBinary(payload[1:])
	} else {
		err = json.Unmarshal(payload, &op)
	}
	if err != nil {
		return Op{}, fmt.Errorf("journal: decoding op: %w", err)
	}
	if op.T == "" {
		return op, fmt.Errorf("journal: op missing type")
	}
	return op, nil
}

var (
	errTruncated = errors.New("truncated record")
	errTrailing  = errors.New("trailing bytes after record")
	errCount     = errors.New("count exceeds record")
	errOverflow  = errors.New("varint overflows int")
	errFields    = errors.New("unknown fields (written by a newer build?)")
)

// decodeBinary parses a binary payload after its format byte. Every count
// is checked against the bytes left before anything is allocated, so no
// input can panic it or drive an oversized allocation (FuzzOpCodec).
func decodeBinary(b []byte) (Op, error) {
	var op Op
	r := opReader{b: b}
	mask := r.uvarint()
	if mask&^knownFields != 0 {
		return Op{}, errFields
	}
	op.T = string(r.bytes())
	if mask&hasAt != 0 {
		op.At = r.varint()
	}
	if mask&hasTask != 0 {
		op.Task = r.int()
	}
	if mask&hasWorker != 0 {
		op.Worker = r.int()
	}
	if mask&hasLabels != 0 {
		op.Labels = make([]int, r.count())
		for i := range op.Labels {
			op.Labels[i] = r.int()
		}
	}
	if mask&hasPay != 0 {
		op.Pay = r.varint()
	}
	op.Terminated = mask&hasTerminated != 0
	if mask&hasPriority != 0 {
		op.Priority = r.int()
	}
	if mask&hasName != 0 {
		op.Name = string(r.bytes())
	}
	if mask&hasReason != 0 {
		op.Reason = string(r.bytes())
	}
	if mask&hasRecords != 0 {
		op.Records = make([]string, r.count())
		for i := range op.Records {
			op.Records[i] = string(r.bytes())
		}
	}
	if mask&hasClasses != 0 {
		op.Classes = r.int()
	}
	if mask&hasQuorum != 0 {
		op.Quorum = r.int()
	}
	if mask&hasFeatures != 0 {
		op.Features = make([][]float64, r.count())
		for i := range op.Features {
			op.Features[i] = r.floats()
		}
	}
	if r.err == nil && len(r.b) != 0 {
		r.err = errTrailing
	}
	if r.err != nil {
		return Op{}, r.err
	}
	return op, nil
}

// opReader consumes a binary payload. The first error sticks and empties
// the input, so every later read returns a zero value and decodeBinary
// checks once at the end.
type opReader struct {
	b   []byte
	err error
}

func (r *opReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *opReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *opReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(errTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *opReader) int() int {
	v := r.varint()
	if v > math.MaxInt || v < math.MinInt {
		r.fail(errOverflow)
		return 0
	}
	return int(v)
}

// count reads an element count and rejects any that the remaining bytes
// cannot hold (every element takes at least one byte).
func (r *opReader) count() int {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.fail(errCount)
		return 0
	}
	return int(n)
}

func (r *opReader) bytes() []byte {
	n := r.count()
	s := r.b[:n]
	r.b = r.b[n:]
	return s
}

// floats reads one feature row.
func (r *opReader) floats() []float64 {
	n := r.uvarint()
	if n == 0 {
		return nil
	}
	if n-1 > uint64(len(r.b)/8) {
		r.fail(errCount)
		return nil
	}
	row := make([]float64, n-1)
	for i := range row {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b))
		r.b = r.b[8:]
	}
	return row
}
