// Package wire implements the retainer-pool protocol's binary transport:
// a zero-dependency, length-prefixed framing (varint length + CRC-32C, in
// the style of internal/journal's record framing) carrying typed codecs
// for the hot ops — join, enqueue tasks, fetch assignment, submit answer,
// heartbeat/leave, and result — over persistent TCP connections.
//
// JSON over HTTP remains the compatibility and control surface (any crowd
// frontend can speak it); the wire transport exists for the high-rate
// worker path, where per-op HTTP routing and JSON encode/decode dominate
// routing latency. Both transports are thin shims over the same
// transport-agnostic server.Core, so an identical op sequence over either
// produces identical shard state (pinned by this package's parity test).
//
// Connection lifecycle:
//
//	client → server: the 8-byte preamble Magic ("CLAMWIR\x02")
//	server → client: the same 8 bytes
//	then framed batch envelopes in both directions.
//
// A peer whose preamble is not exactly Magic — another protocol, or an
// older or newer version of this one — is refused before any frame is
// exchanged, rather than having its frames misread.
//
// Frame layout (everything little-endian):
//
//	[uvarint payload length][4-byte CRC-32C of payload][payload]
//
// Every payload is a batch envelope — a vector of tagged sub-messages:
//
//	[uvarint count] then per sub-message [uvarint tag][uvarint len][len bytes]
//
// so a client coalesces any number of independent ops into one frame (one
// CRC, one write(2), one read wake-up) and keeps several frames in flight
// on one connection; a single op rides a batch of one. The server answers
// every sub-request with a sub-response carrying the same tag; it
// currently answers each request frame with one in-order response frame,
// but tags — not arrival order — are the correlation contract, so a
// future server may legally reorder. Sub-message bodies are one request
// or one response in the typed codecs of codec.go.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Magic is the connection preamble. Its trailing byte is the protocol
// version; both ends require an exact match.
const Magic = "CLAMWIR\x02"

// MaxFrame caps a frame's payload, mirroring journal.MaxRecord: the length
// prefix of a corrupt or hostile peer is checked against it before any
// allocation, so a bad frame cannot balloon memory.
const MaxFrame = 1 << 24 // 16 MiB

// MaxBatch caps the sub-messages in one envelope. The client splits
// larger batches across frames; the server drops a connection exceeding
// it (a protocol violation, like an oversized frame). The cap bounds the
// worst-case response envelope: MaxBatch tiny error sub-responses still
// fit comfortably under MaxFrame.
const MaxBatch = 4096

var (
	// ErrChecksum reports a frame whose payload does not match its CRC.
	ErrChecksum = errors.New("wire: frame checksum mismatch")
	// ErrTooLarge reports a length prefix above MaxFrame.
	ErrTooLarge = errors.New("wire: frame length exceeds limit")
	// ErrBadMagic reports a connection preamble from an incompatible peer.
	ErrBadMagic = errors.New("wire: bad protocol magic (incompatible version?)")
	// ErrBatchCount reports an envelope with a hostile sub-message count.
	ErrBatchCount = errors.New("wire: batch count exceeds limit")
	// ErrThrottled reports an op refused by the server's per-connection
	// rate limit. The connection is still healthy; back off and retry.
	ErrThrottled = errors.New("wire: rate limited")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// readFrame reads one frame, reusing buf when it is large enough. The
// returned slice is valid until the next readFrame with the same buffer.
//
// The header (uvarint length + CRC) is decoded from the reader's buffered
// bytes when possible: a well-formed peer writes each frame in one flush,
// so after the first blocking read the whole header is already buffered
// and the per-byte ReadUvarint interface calls — measurable at wire op
// rates — are skipped.
func readFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var n uint64
	var crc uint32
	if _, err := br.Peek(1); err != nil {
		return nil, err
	}
	if peeked, _ := br.Peek(min(br.Buffered(), binary.MaxVarintLen64+4)); len(peeked) > 0 {
		v, used := binary.Uvarint(peeked)
		if used > 0 && len(peeked) >= used+4 {
			n = v
			if n > MaxFrame {
				return nil, ErrTooLarge
			}
			crc = binary.LittleEndian.Uint32(peeked[used:])
			br.Discard(used + 4)
			goto payload
		}
	}
	// Slow path: the header straddles a buffer refill boundary.
	{
		v, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		n = v
		if n > MaxFrame {
			return nil, ErrTooLarge
		}
		p, err := br.Peek(4)
		if err != nil {
			return nil, unexpectedEOF(err)
		}
		crc = binary.LittleEndian.Uint32(p)
		br.Discard(4)
	}
payload:
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, unexpectedEOF(err)
	}
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, ErrChecksum
	}
	return payload, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// writeFrame frames and writes one payload (the caller flushes).
func writeFrame(bw *bufio.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return ErrTooLarge
	}
	// The header is built in bw's free space: a stack array would escape
	// through Write to the underlying io.Writer, one allocation per frame.
	hdr := binary.AppendUvarint(bw.AvailableBuffer(), uint64(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.Checksum(payload, crcTable))
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	_, err := bw.Write(payload)
	return err
}

// --- batch envelope ---

// appendSub appends one tagged sub-message to a batch envelope under
// construction (the caller has already appended the count).
func appendSub(buf []byte, tag uint64, body []byte) []byte {
	buf = binary.AppendUvarint(buf, tag)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// batchReader iterates the sub-messages of an envelope. Decoding is
// strict: the count is sanity-checked against the remaining payload
// before iteration (each sub-message takes at least two bytes), every
// sub-length is validated against the remainder, and trailing garbage
// after the last sub-message is rejected.
type batchReader struct {
	b []byte
	i int
	n int // sub-messages remaining
}

// newBatchReader parses an envelope's count header.
func newBatchReader(payload []byte) (batchReader, error) {
	n, used := binary.Uvarint(payload)
	if used <= 0 {
		return batchReader{}, errTruncated
	}
	if n > MaxBatch {
		return batchReader{}, ErrBatchCount
	}
	if n > uint64(len(payload)-used)/2 {
		return batchReader{}, errCount
	}
	return batchReader{b: payload, i: used, n: int(n)}, nil
}

// next returns the following sub-message. ok is false when the envelope
// is exhausted; err reports malformed framing within the envelope.
func (br *batchReader) next() (tag uint64, body []byte, ok bool, err error) {
	if br.n == 0 {
		if br.i != len(br.b) {
			return 0, nil, false, errTrailing
		}
		return 0, nil, false, nil
	}
	br.n--
	tag, used := binary.Uvarint(br.b[br.i:])
	if used <= 0 {
		return 0, nil, false, errTruncated
	}
	br.i += used
	ln, used := binary.Uvarint(br.b[br.i:])
	if used <= 0 {
		return 0, nil, false, errTruncated
	}
	br.i += used
	if ln > uint64(len(br.b)-br.i) {
		return 0, nil, false, errCount
	}
	body = br.b[br.i : br.i+int(ln)]
	br.i += int(ln)
	return tag, body, true, nil
}

// --- handshake ---

// serverHandshake reads the peer's preamble, requires it to be exactly
// Magic, and echoes it.
//
//clamshell:coldpath once per connection, before the request loop
func serverHandshake(br *bufio.Reader, bw *bufio.Writer) error {
	if err := readMagic(br); err != nil {
		return err
	}
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	return bw.Flush()
}

// clientHandshake sends Magic and requires the server to echo it.
//
//clamshell:coldpath once per connection, before the request loop
func clientHandshake(br *bufio.Reader, bw *bufio.Writer) error {
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return readMagic(br)
}

// readMagic reads one preamble and refuses anything but Magic.
//
//clamshell:coldpath once per connection, before the request loop
func readMagic(br *bufio.Reader) error {
	var m [len(Magic)]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return fmt.Errorf("wire: reading handshake: %w", err)
	}
	if string(m[:]) != Magic {
		return ErrBadMagic
	}
	return nil
}
