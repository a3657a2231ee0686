package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
)

// pipeClient starts a server goroutine over a net.Pipe and returns a
// handshaken client.
func pipeClient(t *testing.T, core server.Core) *Client {
	t.Helper()
	t.Cleanup(servertest.VerifyNone(t))
	cliConn, srvConn := net.Pipe()
	go NewServer(core).ServeConn(srvConn)
	cl, err := NewClient(cliConn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	t.Cleanup(func() { cl.Close() })
	return cl
}

// The full worker lifecycle over the wire transport against a standalone
// shard core: join, enqueue, fetch, redeliver, submit, straggler
// termination, result, heartbeat, leave, and the protocol's error cases.
func TestWireEndToEnd(t *testing.T) {
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1}, 0, 1)
	cl := pipeClient(t, sh)

	w1, err := cl.Join("alice")
	if err != nil || w1 != 1 {
		t.Fatalf("join: id=%d err=%v", w1, err)
	}
	w2, err := cl.Join("bob")
	if err != nil || w2 != 2 {
		t.Fatalf("join: id=%d err=%v", w2, err)
	}

	if _, _, err := cl.FetchTask(w1); err != nil {
		t.Fatalf("fetch empty queue: %v", err)
	}

	ids, err := cl.SubmitTasks([]server.TaskSpec{
		{Records: []string{"r1a", "r1b"}, Classes: 3, Quorum: 1},
	})
	if err != nil || len(ids) != 1 {
		t.Fatalf("enqueue: ids=%v err=%v", ids, err)
	}

	// Empty batch and empty records are rejected with the protocol errors.
	if _, err := cl.SubmitTasks(nil); err == nil || !strings.Contains(err.Error(), "no tasks given") {
		t.Fatalf("empty batch error = %v", err)
	}
	if _, err := cl.SubmitTasks([]server.TaskSpec{{Quorum: 1}}); err == nil ||
		!strings.Contains(err.Error(), "task with no records") {
		t.Fatalf("no records error = %v", err)
	}

	a, ok, err := cl.FetchTask(w1)
	if err != nil || !ok || a.TaskID != ids[0] {
		t.Fatalf("fetch: %+v ok=%v err=%v", a, ok, err)
	}
	// Redelivery of the in-flight assignment.
	a2, ok, err := cl.FetchTask(w1)
	if err != nil || !ok || a2.TaskID != a.TaskID || !reflect.DeepEqual(a2.Records, a.Records) {
		t.Fatalf("redeliver: %+v ok=%v err=%v", a2, ok, err)
	}

	// w2 speculates on the same task and loses the race.
	b, ok, err := cl.FetchTask(w2)
	if err != nil || !ok || b.TaskID != a.TaskID {
		t.Fatalf("speculative fetch: %+v ok=%v err=%v", b, ok, err)
	}
	if acc, term, err := cl.Submit(w1, a.TaskID, []int{1, 2}); err != nil || !acc || term {
		t.Fatalf("primary submit: acc=%v term=%v err=%v", acc, term, err)
	}
	if acc, term, err := cl.Submit(w2, b.TaskID, []int{0, 0}); err != nil || acc || !term {
		t.Fatalf("straggler submit: acc=%v term=%v err=%v", acc, term, err)
	}
	// Replay of the straggler's submission is re-acknowledged idempotently.
	if acc, term, err := cl.Submit(w2, b.TaskID, []int{0, 0}); err != nil || acc || !term {
		t.Fatalf("straggler replay: acc=%v term=%v err=%v", acc, term, err)
	}

	st, err := cl.Result(a.TaskID)
	if err != nil || st.State != "complete" || !reflect.DeepEqual(st.Consensus, []int{1, 2}) {
		t.Fatalf("result: %+v err=%v", st, err)
	}

	// Error cases carry the canonical protocol messages.
	if _, _, err := cl.Submit(99, ids[0], []int{0, 0}); err == nil || !strings.Contains(err.Error(), "unknown worker") {
		t.Fatalf("unknown worker submit error = %v", err)
	}
	if _, _, err := cl.Submit(w1, 999, []int{0, 0}); err == nil || !strings.Contains(err.Error(), "unknown task") {
		t.Fatalf("unknown task submit error = %v", err)
	}
	if _, _, err := cl.Submit(w1, ids[0], []int{0}); err == nil || !strings.Contains(err.Error(), "labels") {
		t.Fatalf("bad labels submit error = %v", err)
	}
	if _, err := cl.Result(999); err == nil || !strings.Contains(err.Error(), "unknown task") {
		t.Fatalf("unknown result error = %v", err)
	}
	if err := cl.Heartbeat(99); err == nil || !strings.Contains(err.Error(), "unknown worker") {
		t.Fatalf("unknown heartbeat error = %v", err)
	}
	if err := cl.Heartbeat(w1); err != nil {
		t.Fatalf("heartbeat: %v", err)
	}
	if err := cl.Leave(w1); err != nil {
		t.Fatalf("leave: %v", err)
	}
	if _, _, err := cl.FetchTask(w1); err == nil || !strings.Contains(err.Error(), "unknown worker") {
		t.Fatalf("fetch after leave error = %v", err)
	}
}

// The wire transport works over real TCP sockets, and one server handles
// several concurrent client connections.
func TestWireTCP(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go NewServer(sh).Serve(l)

	done := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			cl, err := Dial(l.Addr().String())
			if err != nil {
				done <- err
				return
			}
			defer cl.Close()
			id, err := cl.Join("tcp-worker")
			if err != nil {
				done <- err
				return
			}
			for i := 0; i < 20; i++ {
				if _, err := cl.SubmitTasks([]server.TaskSpec{{Records: []string{"t"}, Quorum: 1}}); err != nil {
					done <- err
					return
				}
				if a, ok, err := cl.FetchTask(id); err != nil {
					done <- err
					return
				} else if ok {
					if _, _, err := cl.Submit(id, a.TaskID, []int{0}); err != nil {
						done <- err
						return
					}
				}
			}
			done <- cl.Leave(id)
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatalf("worker %d: %v", g, err)
		}
	}
}

// A client whose preamble is not exactly Magic — bad prefix or any other
// version byte — is refused before any frame is exchanged.
func TestWireHandshakeRejectsBadMagic(t *testing.T) {
	for _, magic := range []string{"XLAMWIR\x02", "CLAMWIR\x00", "CLAMWIR\x01", "CLAMWIR\x03"} {
		sh := server.NewShard(server.Config{}, 0, 1)
		cliConn, srvConn := net.Pipe()
		srvDone := make(chan struct{})
		go func() { NewServer(sh).ServeConn(srvConn); close(srvDone) }()
		cliConn.SetDeadline(time.Now().Add(2 * time.Second))
		if _, err := cliConn.Write([]byte(magic)); err != nil {
			t.Fatal(err)
		}
		// The server drops the connection without answering.
		buf := make([]byte, 1)
		if n, err := cliConn.Read(buf); err == nil {
			t.Fatalf("server answered %d bytes to bad handshake %q", n, magic)
		}
		<-srvDone
	}
}

// rawConn is a handshaken connection that sends hand-built sub-request
// bodies, each as a batch of one, so tests can put bytes on the wire that
// the Client would never encode.
type rawConn struct {
	t   *testing.T
	br  *bufio.Reader
	bw  *bufio.Writer
	tag uint64
}

// dialRaw serves core over a net.Pipe and handshakes a rawConn to it. The
// returned conn is the client end, closed at cleanup.
func dialRaw(t *testing.T, core server.Core) (*rawConn, net.Conn) {
	t.Helper()
	t.Cleanup(servertest.VerifyNone(t))
	cliConn, srvConn := net.Pipe()
	go NewServer(core).ServeConn(srvConn)
	t.Cleanup(func() { cliConn.Close() })
	rc := &rawConn{t: t, br: bufio.NewReader(cliConn), bw: bufio.NewWriter(cliConn)}
	if err := clientHandshake(rc.br, rc.bw); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	return rc, cliConn
}

// send writes body as a batch of one and returns the status byte of the
// sub-response, which must carry the request's tag.
func (rc *rawConn) send(body []byte) byte {
	rc.t.Helper()
	rc.tag++
	env := appendSub(binary.AppendUvarint(nil, 1), rc.tag, body)
	if err := writeFrame(rc.bw, env); err != nil {
		rc.t.Fatal(err)
	}
	if err := rc.bw.Flush(); err != nil {
		rc.t.Fatal(err)
	}
	resp, err := readFrame(rc.br, nil)
	if err != nil {
		rc.t.Fatalf("read response: %v", err)
	}
	batch, err := newBatchReader(resp)
	if err != nil || batch.n != 1 {
		rc.t.Fatalf("response envelope: n=%d err=%v", batch.n, err)
	}
	tag, sub, ok, err := batch.next()
	if err != nil || !ok || tag != rc.tag || len(sub) == 0 {
		rc.t.Fatalf("sub-response: tag=%d (want %d) body=%v ok=%v err=%v", tag, rc.tag, sub, ok, err)
	}
	return sub[0]
}

// A malformed payload inside an intact frame is answered in-band and the
// connection keeps working; framing-level corruption drops the connection.
func TestWireMalformedPayloadKeepsConnection(t *testing.T) {
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	rc, cliConn := dialRaw(t, sh)

	// Opcode 0 is unknown: expect a stBadRequest response.
	if st := rc.send([]byte{0}); st != stBadRequest {
		t.Fatalf("unknown opcode status = %d", st)
	}
	// A truncated join (name length past the payload) also answers in-band.
	if st := rc.send([]byte{opJoin, 200}); st != stBadRequest {
		t.Fatalf("truncated join status = %d", st)
	}
	// The connection still serves well-formed requests afterwards.
	if st := rc.send(encodeRequest(nil, request{op: opJoin, name: "ok"})); st != stOK {
		t.Fatalf("join after malformed payload status = %d", st)
	}

	// A frame whose payload fails its CRC cannot be resynchronized: the
	// server drops the connection without answering.
	var frame bytes.Buffer
	fbw := bufio.NewWriter(&frame)
	writeFrame(fbw, appendSub(binary.AppendUvarint(nil, 1), 9, encodeRequest(nil, request{op: opJoin, name: "bad"})))
	fbw.Flush()
	raw := frame.Bytes()
	raw[len(raw)-1] ^= 0x40
	cliConn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := cliConn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(rc.br, nil); err == nil {
		t.Fatal("server answered a corrupt frame instead of dropping")
	}
	if sh.CoreHeartbeat(2) {
		t.Fatal("the corrupt frame's join was served")
	}
}

// A v1 peer's preamble is refused like any bad magic: the server drops
// the connection without answering and serves none of the requests the
// peer sends after it.
func TestWireV1PreambleRefused(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	srvDone := make(chan struct{})
	go func() { NewServer(sh).ServeConn(srvConn); close(srvDone) }()
	cliConn.SetDeadline(time.Now().Add(2 * time.Second))

	// A v1 session: the old preamble, then a bare join request frame.
	var msg bytes.Buffer
	bw := bufio.NewWriter(&msg)
	bw.WriteString("CLAMWIR\x01")
	writeFrame(bw, encodeRequest(nil, request{op: opJoin, name: "legacy"}))
	bw.Flush()
	go cliConn.Write(msg.Bytes()) // fails once the server hangs up
	if n, err := cliConn.Read(make([]byte, 1)); err == nil {
		t.Fatalf("server answered %d bytes to a v1 preamble", n)
	}
	<-srvDone
	if sh.CoreHeartbeat(1) {
		t.Fatal("a v1 join was served")
	}
	if snap := sh.Obs().ConnSnapshot(); len(snap) != 0 {
		t.Fatalf("refused connection was accounted: %+v", snap)
	}
}

// Frame round-trips, CRC detection, and the length cap.
func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{{}, {0}, []byte("hello"), bytes.Repeat([]byte{0xAB}, 70000)}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	for _, p := range payloads {
		if err := writeFrame(bw, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(bytes.NewReader(buf.Bytes()))
	var scratch []byte
	for i, want := range payloads {
		got, err := readFrame(br, scratch)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
		scratch = got[:0:cap(got)]
	}

	// Flip one payload byte: the CRC must catch it.
	raw := append([]byte(nil), buf.Bytes()...)
	raw[len(raw)-1] ^= 0x40
	br = bufio.NewReader(bytes.NewReader(raw))
	var err error
	for i := 0; i <= len(payloads); i++ {
		if _, err = readFrame(br, nil); err != nil {
			break
		}
	}
	if err != ErrChecksum {
		t.Fatalf("bit flip error = %v, want ErrChecksum", err)
	}

	// Fed one byte at a time, every header straddles a buffer refill and
	// takes readFrame's slow path; a stream cut inside a CRC is a torn frame.
	br = bufio.NewReader(iotest.OneByteReader(bytes.NewReader(buf.Bytes())))
	for i, want := range payloads {
		if got, err := readFrame(br, nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("byte-at-a-time frame %d: %d bytes, %v", i, len(got), err)
		}
	}
	torn := bufio.NewReader(iotest.OneByteReader(bytes.NewReader(buf.Bytes()[:3])))
	if _, err := readFrame(torn, nil); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header error = %v, want io.ErrUnexpectedEOF", err)
	}

	// An oversized length prefix is rejected before allocation.
	var big bytes.Buffer
	bigw := bufio.NewWriter(&big)
	bigw.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}) // uvarint ≫ MaxFrame
	bigw.Flush()
	if _, err := readFrame(bufio.NewReader(bytes.NewReader(big.Bytes())), nil); err != ErrTooLarge {
		t.Fatalf("oversized frame error = %v, want ErrTooLarge", err)
	}
}

// Codec round-trips for every request shape.
func TestRequestCodecRoundTrip(t *testing.T) {
	reqs := []request{
		{op: opJoin, name: "alice ☺"},
		{op: opJoin, name: ""},
		{op: opHeartbeat, worker: 7},
		{op: opLeave, worker: 1 << 40},
		{op: opFetch, worker: 3},
		{op: opResult, task: 12},
		{op: opSubmit, worker: 2, task: 9, labels: []int{0, -1, 5}},
		{op: opSubmit, worker: 2, task: 9, labels: []int{}},
		{op: opEnqueue, specs: []server.TaskSpec{
			{Records: []string{"a", "b"}, Classes: 3, Quorum: 2, Priority: -4},
			{Records: []string{""}, Classes: 0, Quorum: 0, Priority: 0},
		}},
	}
	for _, req := range reqs {
		enc := encodeRequest(nil, req)
		dec, err := decodeRequest(enc)
		if err != nil {
			t.Fatalf("decode(%+v): %v", req, err)
		}
		if dec.op != req.op || dec.worker != req.worker || dec.task != req.task || dec.name != req.name {
			t.Fatalf("roundtrip %+v -> %+v", req, dec)
		}
		if len(req.labels) != len(dec.labels) || (len(req.labels) > 0 && !reflect.DeepEqual(req.labels, dec.labels)) {
			t.Fatalf("labels roundtrip %v -> %v", req.labels, dec.labels)
		}
		if len(req.specs) > 0 && !reflect.DeepEqual(req.specs, dec.specs) {
			t.Fatalf("specs roundtrip %+v -> %+v", req.specs, dec.specs)
		}
		// Trailing garbage after a valid request is rejected.
		if _, err := decodeRequest(append(enc, 0)); err == nil {
			t.Fatalf("trailing byte accepted for %+v", req)
		}
	}
}

// The conn loop keys per-connection accounting by remote address: served
// ops and strict-decoder rejections land on the connection's cell, and the
// counts surface through the core's observability plane.
func TestWireConnStatsAccounting(t *testing.T) {
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	rc, _ := dialRaw(t, sh)

	// Two served ops, then two sub-requests the strict decoder rejects
	// (unknown opcode, truncated join): the error path must not count as
	// an op.
	if st := rc.send(encodeRequest(nil, request{op: opJoin, name: "alice"})); st != stOK {
		t.Fatalf("join status = %d", st)
	}
	if st := rc.send(encodeRequest(nil, request{op: opHeartbeat, worker: 1})); st != stOK {
		t.Fatalf("heartbeat status = %d", st)
	}
	if st := rc.send([]byte{0}); st != stBadRequest {
		t.Fatalf("unknown opcode status = %d", st)
	}
	if st := rc.send([]byte{opJoin, 200}); st != stBadRequest {
		t.Fatalf("truncated join status = %d", st)
	}

	snap := sh.Obs().ConnSnapshot()
	if len(snap) != 1 {
		t.Fatalf("conn snapshot has %d entries, want 1: %+v", len(snap), snap)
	}
	cc := snap[0]
	if cc.Remote != "pipe" || cc.Ops != 2 || cc.DecodeErrors != 2 {
		t.Fatalf("conn counts = %+v, want remote=pipe ops=2 decodeErrors=2", cc)
	}
}
