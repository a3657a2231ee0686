package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
)

// FuzzWireFrame feeds arbitrary bytes to the frame reader: malformed
// lengths, truncated frames and bit flips must never panic or over-read,
// and any frame it does accept must round-trip through writeFrame.
func FuzzWireFrame(f *testing.F) {
	var seed bytes.Buffer
	bw := bufio.NewWriter(&seed)
	writeFrame(bw, []byte("hello"))
	writeFrame(bw, nil)
	writeFrame(bw, bytes.Repeat([]byte{7}, 300))
	bw.Flush()
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		br := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for i := 0; i < 64; i++ {
			payload, err := readFrame(br, buf)
			if err != nil {
				return
			}
			// An accepted frame re-encodes to something the reader accepts
			// again with the same payload.
			var out bytes.Buffer
			obw := bufio.NewWriter(&out)
			if err := writeFrame(obw, payload); err != nil {
				t.Fatalf("re-encode accepted frame: %v", err)
			}
			obw.Flush()
			back, err := readFrame(bufio.NewReader(bytes.NewReader(out.Bytes())), nil)
			if err != nil {
				t.Fatalf("re-read re-encoded frame: %v", err)
			}
			if !bytes.Equal(back, payload) {
				t.Fatalf("frame roundtrip changed payload")
			}
			buf = payload[:0:cap(payload)]
		}
	})
}

// FuzzWireCodec feeds arbitrary payloads to the message decoders: no input
// may panic or cause an oversized allocation, and any request that decodes
// must re-encode byte-identically (canonical encoding).
func FuzzWireCodec(f *testing.F) {
	f.Add(encodeRequest(nil, request{op: opJoin, name: "alice"}))
	f.Add(encodeRequest(nil, request{op: opHeartbeat, worker: 7}))
	f.Add(encodeRequest(nil, request{op: opLeave, worker: 5}))
	f.Add(encodeRequest(nil, request{op: opFetch, worker: 3}))
	f.Add(encodeRequest(nil, request{op: opSubmit, worker: 1, task: 2, labels: []int{0, 1}}))
	f.Add(encodeRequest(nil, request{op: opEnqueue, specs: []server.TaskSpec{
		{Records: []string{"a"}, Classes: 2, Quorum: 1, Priority: -1},
	}}))
	f.Add(encodeRequest(nil, request{op: opEnqueue, specs: []server.TaskSpec{
		{Records: []string{"a", "b"}, Classes: 3, Quorum: 2,
			Features: [][]float64{{0.25, -1.5}, {1e-9, 2.5}}},
	}}))
	f.Add(encodeRequest(nil, request{op: opResult, task: 9}))
	f.Add([]byte{opEnqueue, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})

	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := decodeRequest(data)
		if err == nil {
			// Whatever decodes must survive an encode/decode round trip
			// unchanged (the input itself may use non-minimal varints, so
			// byte equality with data is not required).
			enc := encodeRequest(nil, req)
			req2, err := decodeRequest(enc)
			if err != nil || !reflect.DeepEqual(req, req2) {
				t.Fatalf("request roundtrip: %+v -> %+v (err=%v)", req, req2, err)
			}
		}
		// Response decoders must be equally robust (the client runs them on
		// whatever the network delivers).
		r := reader{b: data}
		decodeAssignment(&r)
		r = reader{b: data}
		decodeTaskStatus(&r)
		r = reader{b: data}
		decodeIDs(&r)
	})
}

// FuzzBatchFrame feeds arbitrary bytes to the v2 batch envelope reader:
// hostile counts, truncated sub-messages, oversized lengths and trailing
// garbage must never panic or over-read, and any envelope that decodes in
// full must survive a canonical re-encode/decode round trip with every
// tag and body intact.
func FuzzBatchFrame(f *testing.F) {
	env := binary.AppendUvarint(nil, 2)
	env = appendSub(env, 0, encodeRequest(nil, request{op: opHeartbeat, worker: 1}))
	env = appendSub(env, 1, encodeRequest(nil, request{op: opFetch, worker: 1}))
	f.Add(env)
	one := binary.AppendUvarint(nil, 1)
	one = appendSub(one, 42, encodeRequest(nil, request{op: opJoin, name: "bob"}))
	f.Add(one)
	f.Add(binary.AppendUvarint(nil, 0))               // empty batch
	f.Add(binary.AppendUvarint(nil, MaxBatch+1))      // hostile count
	f.Add(append(binary.AppendUvarint(nil, 1), 0, 5)) // sub-length past the end
	f.Add(append(one[:len(one):len(one)], 0xAA))      // trailing garbage
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		br, err := newBatchReader(data)
		if err != nil {
			return
		}
		type sub struct {
			tag  uint64
			body []byte
		}
		var subs []sub
		for {
			tag, body, ok, err := br.next()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			subs = append(subs, sub{tag, append([]byte(nil), body...)})
		}
		// Fully decoded: the canonical re-encode (what the client and
		// server emit) must decode back to the identical sub-messages.
		enc := binary.AppendUvarint(nil, uint64(len(subs)))
		for _, s := range subs {
			enc = appendSub(enc, s.tag, s.body)
		}
		br2, err := newBatchReader(enc)
		if err != nil {
			t.Fatalf("re-reading canonical envelope: %v", err)
		}
		for i := 0; ; i++ {
			tag, body, ok, err := br2.next()
			if err != nil {
				t.Fatalf("canonical envelope sub %d: %v", i, err)
			}
			if !ok {
				if i != len(subs) {
					t.Fatalf("canonical envelope lost subs: %d of %d", i, len(subs))
				}
				break
			}
			if tag != subs[i].tag || !bytes.Equal(body, subs[i].body) {
				t.Fatalf("sub %d changed in roundtrip: tag %d->%d", i, subs[i].tag, tag)
			}
		}
	})
}

// FuzzHandshake feeds arbitrary preamble bytes to the server side of the
// handshake: it must accept exactly Magic, echo it back, and reject
// everything else — v1's preamble included — without panicking or
// over-reading.
func FuzzHandshake(f *testing.F) {
	f.Add([]byte("CLAMWIR\x01")) // v1
	f.Add([]byte(Magic))
	f.Add([]byte("CLAMWIR\x00")) // version below the floor
	f.Add([]byte("CLAMWIR\x03")) // a newer version
	f.Add([]byte("XLAMWIR\x02")) // wrong magic
	f.Add([]byte("CLAMWIR"))     // truncated: no version byte
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var out bytes.Buffer
		br := bufio.NewReader(bytes.NewReader(data))
		bw := bufio.NewWriter(&out)
		err := serverHandshake(br, bw)
		if !bytes.HasPrefix(data, []byte(Magic)) {
			if err == nil {
				t.Fatalf("accepted invalid preamble %q", data)
			}
			return
		}
		if err != nil {
			t.Fatalf("rejected valid preamble: %v", err)
		}
		if out.String() != Magic {
			t.Fatalf("echoed %q, want %q", out.String(), Magic)
		}
	})
}

// FuzzServeConn writes a valid preamble and then arbitrary bytes into the
// serving loop over a net.Pipe, reading the responses concurrently. No
// input may panic the server; every request frame that is intact and
// well-enveloped must be answered, in order, by an envelope with one
// sub-response per sub-request whose tags are the request's; the first
// framing or envelope violation ends the connection without an answer;
// and the serving goroutine must exit once the peer hangs up.
func FuzzServeConn(f *testing.F) {
	frame := func(payloads ...[]byte) []byte {
		var b bytes.Buffer
		bw := bufio.NewWriter(&b)
		for _, p := range payloads {
			writeFrame(bw, p)
		}
		bw.Flush()
		return b.Bytes()
	}
	env := func(bodies ...[]byte) []byte {
		e := binary.AppendUvarint(nil, uint64(len(bodies)))
		for i, body := range bodies {
			e = appendSub(e, uint64(i)+7, body)
		}
		return e
	}
	join := encodeRequest(nil, request{op: opJoin, name: "w"})
	enqueue := encodeRequest(nil, request{op: opEnqueue, specs: []server.TaskSpec{{Records: []string{"r"}, Classes: 2, Quorum: 1}}})
	fetch := encodeRequest(nil, request{op: opFetch, worker: 1})
	submit := encodeRequest(nil, request{op: opSubmit, worker: 1, task: 1, labels: []int{1}})
	f.Add(frame(env(join, enqueue, fetch), env(submit), env(encodeRequest(nil, request{op: opResult, task: 1}))))
	f.Add(frame(env([]byte{0}), env(join[:2]), env(encodeSnapshotReq(nil)))) // in-band errors
	f.Add(frame(env(), env(join, join)))                                     // empty envelope, duplicate tags
	f.Add(frame(binary.AppendUvarint(nil, MaxBatch+1)))                      // hostile count
	corrupt := frame(env(join), env(fetch))
	corrupt[len(corrupt)-1] ^= 0x40
	f.Add(append(corrupt, frame(env(fetch))...)) // CRC mismatch, then a frame that must go unanswered
	f.Add(frame(env(join))[:5])                  // truncated frame
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		t.Cleanup(servertest.VerifyNone(t))
		// The server answers every frame up to the first one it must drop.
		var want [][]uint64
		for br := bufio.NewReader(bytes.NewReader(data)); ; {
			payload, err := readFrame(br, nil)
			if err != nil {
				break
			}
			tags, err := envelopeTags(payload)
			if err != nil {
				break
			}
			want = append(want, tags)
		}

		sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
		cliConn, srvConn := net.Pipe()
		defer cliConn.Close()
		cliConn.SetDeadline(time.Now().Add(10 * time.Second))
		msg := append([]byte(Magic), data...)
		served := make(chan struct{})
		go func() {
			NewServer(sh).ServeConn(&eofAfter{Conn: srvConn, n: len(msg)})
			close(served)
		}()
		wrote := make(chan struct{})
		go func() { cliConn.Write(msg); close(wrote) }()

		br := bufio.NewReader(cliConn)
		echo := make([]byte, len(Magic))
		if _, err := io.ReadFull(br, echo); err != nil || string(echo) != Magic {
			t.Fatalf("handshake echo %q: %v", echo, err)
		}
		var got [][]uint64
		for {
			payload, err := readFrame(br, nil)
			if err == io.EOF {
				break // the server hung up
			}
			if err != nil {
				t.Fatalf("response %d: %v", len(got)+1, err)
			}
			tags, err := envelopeTags(payload)
			if err != nil {
				t.Fatalf("response %d is not an envelope: %v", len(got)+1, err)
			}
			got = append(got, tags)
		}
		select {
		case <-served:
		case <-time.After(5 * time.Second):
			t.Fatal("serving goroutine still running after the peer hung up")
		}
		<-wrote
		if len(got) != len(want) {
			t.Fatalf("server answered %d frames, want %d", len(got), len(want))
		}
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("response %d tags %v, request tags %v", i+1, got[i], want[i])
			}
		}
	})
}

// eofAfter ends a server connection's read side after n bytes, the way a
// client's half-close would (net.Pipe has none), so the serving loop sees
// a clean disconnect once it has consumed everything the client sent.
type eofAfter struct {
	net.Conn
	n int
}

func (c *eofAfter) Read(p []byte) (int, error) {
	if c.n == 0 {
		return 0, io.EOF
	}
	if len(p) > c.n {
		p = p[:c.n]
	}
	k, err := c.Conn.Read(p)
	c.n -= k
	return k, err
}

// envelopeTags decodes a whole envelope and returns its sub-message tags.
func envelopeTags(payload []byte) ([]uint64, error) {
	batch, err := newBatchReader(payload)
	if err != nil {
		return nil, err
	}
	tags := []uint64{}
	for {
		tag, _, ok, err := batch.next()
		if err != nil {
			return nil, err
		}
		if !ok {
			return tags, nil
		}
		tags = append(tags, tag)
	}
}
