package wire

import (
	"bufio"
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"errors"
	"math/big"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/server/servertest"
)

// A framing-level failure leaves the stream position undefined, so the
// client must poison itself: the failing call reports the root cause, the
// connection is torn down, and every subsequent call fails fast with
// ErrPoisoned instead of misparsing a stale frame as its response.
func TestWireClientPoisonedByFramingError(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	cliConn, srvConn := net.Pipe()
	// A fake server that answers the first request with a mid-frame
	// corruption: a well-formed header whose payload fails its CRC.
	go func() {
		defer srvConn.Close()
		br := bufio.NewReader(srvConn)
		bw := bufio.NewWriter(srvConn)
		if err := serverHandshake(br, bw); err != nil {
			return
		}
		if _, err := readFrame(br, nil); err != nil {
			return
		}
		var frame bytes.Buffer
		fbw := bufio.NewWriter(&frame)
		writeFrame(fbw, []byte{1, 0, 2, stOK, 7}) // plausible envelope bytes
		fbw.Flush()
		raw := frame.Bytes()
		raw[len(raw)-1] ^= 0x40 // flip a payload bit: CRC now fails
		srvConn.Write(raw)
		// Wait for the client to hang up (poison closes the conn).
		io := make([]byte, 1)
		srvConn.SetReadDeadline(time.Now().Add(2 * time.Second))
		br.Read(io)
	}()

	cl, err := NewClient(cliConn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	if _, err := cl.Join("alice"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("corrupted response error = %v, want ErrChecksum", err)
	}
	// The client is now poisoned: calls fail fast without touching the
	// connection (the fake server is no longer answering, so a live
	// round trip would hang, not error).
	done := make(chan error, 1)
	go func() { done <- cl.Heartbeat(1) }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrPoisoned) {
			t.Fatalf("post-poison error = %v, want ErrPoisoned", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("post-poison call attempted a round trip instead of failing fast")
	}
	// Batches see the same sticky error, in Do and in every slot.
	b := cl.NewBatch()
	hb := b.Heartbeat(1)
	if err := b.Do(); !errors.Is(err, ErrPoisoned) || !errors.Is(hb.Err, ErrPoisoned) {
		t.Fatalf("post-poison batch: do=%v slot=%v, want ErrPoisoned", err, hb.Err)
	}
}

// A peer that connects and never sends its preamble must not pin a server
// goroutine: the handshake read carries a deadline.
func TestWireHandshakeDeadline(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{}, 0, 1)
	ws := NewServer(sh)
	ws.HandshakeTimeout = 50 * time.Millisecond
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	go ws.ServeConn(srvConn)
	// Send nothing. The server must give up and close the connection.
	cliConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 8)
	if n, err := cliConn.Read(buf); err == nil {
		t.Fatalf("server answered %d bytes to a silent peer", n)
	}
}

// The deadline is cleared after the preamble: a connection that completes
// the handshake may idle far past the handshake timeout and still be
// served.
func TestWireHandshakeDeadlineClearedAfterMagic(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	ws := NewServer(sh)
	ws.HandshakeTimeout = 50 * time.Millisecond
	cliConn, srvConn := net.Pipe()
	go ws.ServeConn(srvConn)
	cl, err := NewClient(cliConn)
	if err != nil {
		t.Fatalf("handshake: %v", err)
	}
	defer cl.Close()
	time.Sleep(150 * time.Millisecond) // idle well past the handshake deadline
	if _, err := cl.Join("patient"); err != nil {
		t.Fatalf("join after idling past handshake timeout: %v", err)
	}
}

// SubmitAndFetch coalesces the worker loop's submit+fetch pair into one
// frame each way, with the semantics of the two ops issued in turn. The
// case runs under the protocol version it exercises, v2.
func TestWireSubmitAndFetch(t *testing.T) {
	t.Run("v2", testWireSubmitAndFetch)
}

func testWireSubmitAndFetch(t *testing.T) {
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	cl := pipeClient(t, sh)
	w, err := cl.Join("pair")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := cl.SubmitTasks([]server.TaskSpec{
		{Records: []string{"t0"}, Classes: 2, Quorum: 1},
		{Records: []string{"t1"}, Classes: 2, Quorum: 1},
	})
	if err != nil || len(ids) != 2 {
		t.Fatalf("enqueue: %v %v", ids, err)
	}
	a, ok, err := cl.FetchTask(w)
	if err != nil || !ok {
		t.Fatalf("fetch: %v %v", ok, err)
	}
	acc, term, next, ok, err := cl.SubmitAndFetch(w, a.TaskID, []int{0})
	if err != nil || !acc || term {
		t.Fatalf("submit+fetch: acc=%v term=%v err=%v", acc, term, err)
	}
	if !ok || next.TaskID == a.TaskID {
		t.Fatalf("submit+fetch next assignment: %+v ok=%v", next, ok)
	}
	// Final round: the fetch side legitimately comes back empty.
	acc, _, _, ok, err = cl.SubmitAndFetch(w, next.TaskID, []int{0})
	if err != nil || !acc || ok {
		t.Fatalf("final submit+fetch: acc=%v ok=%v err=%v", acc, ok, err)
	}
}

// Batches larger than MaxBatch are split transparently across frames.
func TestWireBatchChunking(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	cliConn, srvConn := net.Pipe()
	go NewServer(sh).ServeConn(srvConn)
	cl, err := NewClient(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w, err := cl.Join("bulk")
	if err != nil {
		t.Fatal(err)
	}
	const n = MaxBatch + 10
	b := cl.NewBatch()
	futs := make([]*OpResult, n)
	for i := range futs {
		futs[i] = b.Heartbeat(w)
	}
	if b.Len() != n {
		t.Fatalf("batch len = %d, want %d", b.Len(), n)
	}
	if err := b.Do(); err != nil {
		t.Fatalf("batch do: %v", err)
	}
	for i, f := range futs {
		if f.Err != nil {
			t.Fatalf("heartbeat %d: %v", i, f.Err)
		}
	}
}

// A batch mixes outcomes: per-op in-band errors land in their own slots
// and do not disturb neighbors or the connection.
func TestWireBatchMixedOutcomes(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour, SpeculationLimit: 1}, 0, 1)
	cliConn, srvConn := net.Pipe()
	go NewServer(sh).ServeConn(srvConn)
	cl, err := NewClient(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	b := cl.NewBatch()
	j := b.Join("mixed")
	badHB := b.Heartbeat(999)
	enq := b.SubmitTasks([]server.TaskSpec{{Records: []string{"r"}, Classes: 2, Quorum: 1}})
	badEnq := b.SubmitTasks(nil)
	badRes := b.Result(12345)
	if err := b.Do(); err != nil {
		t.Fatalf("batch do: %v", err)
	}
	if j.Err != nil || j.ID != 1 {
		t.Fatalf("join slot: id=%d err=%v", j.ID, j.Err)
	}
	// The batched heartbeat's error reads exactly as the single-op one's.
	if want := "heartbeat: " + server.ErrUnknownWorker.Error(); badHB.Err == nil || badHB.Err.Error() != want {
		t.Fatalf("bad heartbeat slot: %v, want %q", badHB.Err, want)
	}
	if err := cl.Heartbeat(999); err == nil || err.Error() != badHB.Err.Error() {
		t.Fatalf("single-op heartbeat error %v != batched %v", err, badHB.Err)
	}
	if enq.Err != nil || len(enq.IDs) != 1 {
		t.Fatalf("enqueue slot: %v %v", enq.IDs, enq.Err)
	}
	if badEnq.Err == nil || !strings.Contains(badEnq.Err.Error(), "no tasks given") {
		t.Fatalf("bad enqueue slot: %v", badEnq.Err)
	}
	if badRes.Err == nil || !strings.Contains(badRes.Err.Error(), "unknown task") {
		t.Fatalf("bad result slot: %v", badRes.Err)
	}
	// The connection survived the in-band errors.
	b2 := cl.NewBatch()
	f := b2.FetchTask(j.ID)
	if err := b2.Do(); err != nil || f.Err != nil || !f.OK || f.Assignment.TaskID != enq.IDs[0] {
		t.Fatalf("fetch after mixed batch: %+v ok=%v err=%v/%v", f.Assignment, f.OK, err, f.Err)
	}
}

// The server refuses an envelope whose count exceeds MaxBatch by dropping
// the connection — a protocol violation like an oversized frame.
func TestWireServerRejectsOversizedBatchCount(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	cliConn, srvConn := net.Pipe()
	defer cliConn.Close()
	go NewServer(sh).ServeConn(srvConn)
	br := bufio.NewReader(cliConn)
	bw := bufio.NewWriter(cliConn)
	if err := clientHandshake(br, bw); err != nil {
		t.Fatalf("handshake: %v", err)
	}
	env := binary.AppendUvarint(nil, MaxBatch+1)
	// Pad so the count isn't rejected by the bytes-remaining check alone.
	env = append(env, make([]byte, 64)...)
	if err := writeFrame(bw, env); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	cliConn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := readFrame(br, nil); err == nil {
		t.Fatal("server answered a hostile batch count instead of dropping")
	}
}

// An oversized request is rejected before any byte hits the wire, so it
// does NOT poison the client — unlike mid-stream corruption.
func TestWireOversizedRequestDoesNotPoison(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	cliConn, srvConn := net.Pipe()
	go NewServer(sh).ServeConn(srvConn)
	cl, err := NewClient(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	huge := strings.Repeat("x", MaxFrame+1)
	if _, err := cl.SubmitTasks([]server.TaskSpec{{Records: []string{huge}, Quorum: 1}}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized enqueue error = %v, want ErrTooLarge", err)
	}
	if _, err := cl.Join("still-alive"); err != nil {
		t.Fatalf("join after oversized request: %v", err)
	}
}

// The per-connection token bucket answers over-limit ops in-band with the
// throttle status — the connection stays healthy — and the refusals are
// counted per remote in the observability plane.
func TestWireRateLimit(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	ws := NewServer(sh)
	ws.RateLimit = 1e-6 // burst floor of 1: first op passes, then throttled for ages
	cliConn, srvConn := net.Pipe()
	go ws.ServeConn(srvConn)
	cl, err := NewClient(cliConn)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	w, err := cl.Join("limited")
	if err != nil {
		t.Fatalf("first op (within burst): %v", err)
	}
	if err := cl.Heartbeat(w); !errors.Is(err, ErrThrottled) {
		t.Fatalf("second op error = %v, want ErrThrottled", err)
	}
	// Batched sub-requests are limited individually too.
	b := cl.NewBatch()
	h1, h2 := b.Heartbeat(w), b.Heartbeat(w)
	if err := b.Do(); err != nil {
		t.Fatalf("throttled batch transport error: %v", err)
	}
	if !errors.Is(h1.Err, ErrThrottled) || !errors.Is(h2.Err, ErrThrottled) {
		t.Fatalf("batched throttle errors = %v / %v, want ErrThrottled", h1.Err, h2.Err)
	}
	snap := sh.Obs().ConnSnapshot()
	if len(snap) != 1 || snap[0].Throttled != 3 || snap[0].Ops != 1 {
		t.Fatalf("conn snapshot = %+v, want ops=1 throttled=3", snap)
	}
}

// The wire listener can face untrusted networks: TLS termination in the
// server process, certificate verification in DialTLS.
func TestWireTLS(t *testing.T) {
	t.Cleanup(servertest.VerifyNone(t))
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "clamshell-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &priv.PublicKey, priv)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	srvCfg := &tls.Config{Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: priv}}}
	l, err := tls.Listen("tcp", "127.0.0.1:0", srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	sh := server.NewShard(server.Config{WorkerTimeout: time.Hour}, 0, 1)
	go NewServer(sh).Serve(l)

	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	cl, err := DialTLS(l.Addr().String(), &tls.Config{RootCAs: pool})
	if err != nil {
		t.Fatalf("tls dial: %v", err)
	}
	defer cl.Close()
	w, err := cl.Join("secure")
	if err != nil || w != 1 {
		t.Fatalf("join over tls: id=%d err=%v", w, err)
	}
	b := cl.NewBatch()
	enq := b.SubmitTasks([]server.TaskSpec{{Records: []string{"r"}, Classes: 2, Quorum: 1}})
	fetch := b.FetchTask(w)
	if err := b.Do(); err != nil || enq.Err != nil || fetch.Err != nil {
		t.Fatalf("batched ops over tls: %v / %v / %v", err, enq.Err, fetch.Err)
	}
	if !fetch.OK || fetch.Assignment.TaskID != enq.IDs[0] {
		t.Fatalf("tls fetch: %+v ok=%v (enq %v)", fetch.Assignment, fetch.OK, enq.IDs)
	}

	// An unverified client is refused by the TLS layer, never reaching the
	// wire handshake.
	if _, err := DialTLS(l.Addr().String(), &tls.Config{}); err == nil {
		t.Fatal("dial with empty root pool unexpectedly verified")
	}
}
