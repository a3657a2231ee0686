// Package journal implements the durability engine under the live routing
// fabric: an append-only, length-prefixed, checksummed op log that a shard
// writes through on every mutation, plus the per-shard Store that pairs the
// log with compacted incremental snapshots. The split mirrors how HTAP
// engines separate an update-optimized log from a scan-optimized compacted
// store: the WAL absorbs the mutation stream at O(1) per op, and periodic
// compaction folds the prefix into a snapshot of the live state (completed
// history is demoted to an append-only tally log), so recovery is
// load-latest-snapshot + replay-journal-suffix regardless of how much work
// the shard has ever processed.
//
// This file defines the record framing shared by every journal file:
//
//	[8-byte magic, once per file]
//	[4-byte little-endian payload length][4-byte CRC-32C of payload][payload]...
//
// A torn tail — a record cut mid-write by a crash — is detected by the
// length/checksum pair and dropped; everything before it is the durable
// prefix. Readers never trust the length field with more than MaxRecord
// bytes of allocation, so a corrupt or hostile file cannot balloon memory.
//
// A wal record's payload is one of two kinds, chosen per record rather
// than per file (op.go has the layouts): a v1 JSON object, or a binary op
// that opens with a byte no JSON document can start with. New records are
// always binary; v1 records are still read. So a node upgraded in place
// keeps appending binary records to the v1 generation it was writing, a
// replication mirror holds whatever mix its primary wrote, and the file
// magics stay as they are.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// File magics. The trailing byte is the format version: readers reject any
// other value with a clear error rather than misreading the framing.
const (
	MagicWAL      = "CLAMWAL\x01" // op log files (wal-<gen>)
	MagicRetained = "CLAMRET\x01" // retained-tally log (retained.log)
)

// MaxRecord caps a single record's payload. The length prefix of a corrupt
// file is checked against it before any allocation.
const MaxRecord = 1 << 24 // 16 MiB

const headerLen = 8 // len(MagicWAL) == len(MagicRetained)

// frameLen is the size of a record's length + checksum prefix.
const frameLen = 8

var (
	// ErrChecksum reports a record whose payload does not match its CRC —
	// a torn write or bit rot.
	ErrChecksum = errors.New("journal: record checksum mismatch")
	// ErrTooLarge reports a length prefix above MaxRecord.
	ErrTooLarge = errors.New("journal: record length exceeds limit")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WriteHeader writes a file's magic. Call once on a freshly created file.
func WriteHeader(w io.Writer, magic string) error {
	_, err := io.WriteString(w, magic)
	return err
}

// AppendRecord frames and writes one payload. The frame goes out in a
// single Write so a crash tears at most one record, never interleaves two.
func AppendRecord(w io.Writer, payload []byte) error {
	rec := append(make([]byte, frameLen, frameLen+len(payload)), payload...)
	if err := sealRecord(rec); err != nil {
		return err
	}
	_, err := w.Write(rec)
	return err
}

// sealRecord fills in the frame prefix of rec, a record built in place as
// frameLen reserved bytes followed by its payload.
func sealRecord(rec []byte) error {
	payload := rec[frameLen:]
	if len(payload) > MaxRecord {
		return ErrTooLarge
	}
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.Checksum(payload, crcTable))
	return nil
}

// Scanner iterates the records of one journal file, tracking the byte
// offset of the end of the last intact record so a torn tail can be
// truncated away before the file is appended to again.
type Scanner struct {
	r   io.Reader
	off int64 // end of the last successfully scanned record
}

// NewScanner checks the file's magic and returns a Scanner positioned at
// the first record. A wrong or unknown magic is an error: the file was
// written by an incompatible build and must not be silently misread.
func NewScanner(r io.Reader, magic string) (*Scanner, error) {
	var hdr [headerLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("journal: reading file header: %w", err)
	}
	if string(hdr[:]) != magic {
		return nil, fmt.Errorf("journal: bad file magic %q, want %q (incompatible format version?)",
			hdr[:], magic)
	}
	return &Scanner{r: r, off: headerLen}, nil
}

// Scan returns the next record's payload. It returns io.EOF at a clean end
// of file; io.ErrUnexpectedEOF, ErrChecksum or ErrTooLarge mark a torn or
// corrupt tail beginning at Offset().
func (sc *Scanner) Scan() ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(sc.r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	if n > MaxRecord {
		return nil, ErrTooLarge
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(sc.r, payload); err != nil {
		return nil, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return nil, ErrChecksum
	}
	sc.off += 8 + int64(n)
	return payload, nil
}

// Offset returns the byte offset just past the last intact record (the
// file header counts). After a failed Scan this is the truncation point
// that removes the torn tail.
func (sc *Scanner) Offset() int64 { return sc.off }
