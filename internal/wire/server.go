package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"syscall"
	"time"

	"github.com/clamshell/clamshell/internal/server"
)

// defaultHandshakeTimeout bounds how long a freshly accepted connection
// may sit silent before its preamble arrives. Without it, a peer that
// connects and sends nothing pins a server goroutine forever.
const defaultHandshakeTimeout = 10 * time.Second

// defaultDrainTimeout bounds how long Shutdown waits for in-flight
// connection goroutines to finish their current frame before force-closing
// them.
const defaultDrainTimeout = 5 * time.Second

// ReplSource serves journal-shipping pulls (opReplPull). The fabric
// implements it; a core without it answers pulls with an in-band error.
// A caught-up pull may block until there is something to ship; it must
// return promptly once stop is closed (the server is shutting down).
type ReplSource interface {
	ReplRead(req ReplPullRequest, stop <-chan struct{}) (ReplChunk, error)
}

// SnapshotSource serves whole-node state snapshot reads (opSnapshot).
type SnapshotSource interface {
	SnapshotBytes() ([]byte, error)
}

// Server speaks the wire protocol over persistent connections, dispatching
// every request to a transport-agnostic server.Core — the same core the
// HTTP shim fronts, so the two transports cannot diverge. One goroutine
// serves each connection. A peer sends tagged batch envelopes and may keep
// several frames in flight, which the server answers in arrival order
// (tags, not order, are the correlation contract).
type Server struct {
	core server.Core
	obs  *server.Obs
	repl ReplSource
	snap SnapshotSource

	// RateLimit caps each connection's served ops per second (a token
	// bucket with a one-second burst). Zero means unlimited. Over-limit
	// requests are answered in-band with a throttle status — the
	// connection stays healthy — and counted per remote in the
	// observability plane.
	RateLimit float64

	// HandshakeTimeout overrides the preamble read deadline (zero selects
	// the default). The deadline is cleared once the magic exchange
	// completes.
	HandshakeTimeout time.Duration

	// Barrier, when set, runs after every frame that carried a mutating op
	// (join, leave, enqueue, fetch, submit) and before its response is
	// written. The fabric uses it for synchronous replication: the barrier
	// blocks (bounded by its own timeout) until a follower has durably
	// mirrored the ops the frame produced, so a wire-level ack implies the
	// op survives a primary loss. Replication pulls, snapshots, heartbeats
	// and result reads never trigger it — a follower's own pull stream must
	// not wait on itself.
	Barrier func()

	// DrainTimeout bounds Shutdown's wait for per-connection goroutines to
	// finish their in-flight frame (zero selects the default).
	DrainTimeout time.Duration

	// Connection registry for Shutdown: Serve-spawned and directly served
	// connections alike register here so a listener close drains them
	// instead of abandoning them mid-stream.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	quit   chan struct{} // closed by Shutdown: releases parked replication pulls
	active sync.WaitGroup
}

// NewServer returns a wire server over core (a *fabric.Fabric or a
// standalone shard). If the core exposes an observability plane, per-op
// service time and frame-decode time are recorded into it; cores without
// one are served uninstrumented. A core that exposes replication or
// snapshot surfaces gets the corresponding control opcodes served.
func NewServer(core server.Core) *Server {
	s := &Server{core: core, conns: make(map[net.Conn]struct{}), quit: make(chan struct{})}
	if p, ok := core.(interface{ Obs() *server.Obs }); ok {
		s.obs = p.Obs()
	}
	if p, ok := core.(ReplSource); ok {
		s.repl = p
	}
	if p, ok := core.(SnapshotSource); ok {
		s.snap = p
	}
	return s
}

// transientAcceptErr reports whether an Accept failure is worth retrying:
// a timeout, or the transient syscall failures a loaded listener sees
// (aborted in-handshake peers, fd/buffer exhaustion). This is an explicit
// allowlist rather than the deprecated net.Error.Temporary(), whose
// meaning — and therefore this loop's behavior — could shift under a Go
// upgrade.
func transientAcceptErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	for _, errno := range []syscall.Errno{
		syscall.ECONNABORTED, syscall.ECONNRESET,
		syscall.EMFILE, syscall.ENFILE, syscall.ENOBUFS, syscall.EINTR,
	} {
		if errors.Is(err, errno) {
			return true
		}
	}
	return false
}

// Serve accepts connections on l, serving each on its own goroutine.
// Transient accept failures (fd exhaustion, aborted handshakes) are retried
// with the same capped backoff net/http uses, so one recoverable error
// cannot kill the listener; Serve returns only when the listener is closed
// or permanently broken. Before returning it drains the connections it is
// serving: each in-flight frame finishes and its response is flushed, then
// the session closes — a listener close must not abandon a replication
// follower mid-chunk with an unacknowledged send.
func (s *Server) Serve(l net.Listener) error {
	var delay time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if transientAcceptErr(err) {
				if delay == 0 {
					delay = 5 * time.Millisecond
				} else {
					delay *= 2
				}
				if delay > time.Second {
					delay = time.Second
				}
				time.Sleep(delay)
				continue
			}
			s.Shutdown()
			return err
		}
		delay = 0
		go s.ServeConn(conn)
	}
}

// Shutdown drains the server's active connections: new connections are
// refused, parked replication pulls are released, blocked reads are woken
// so each serving goroutine finishes (and flushes) the frame it is on, and
// after DrainTimeout any straggler is force-closed. It is idempotent and
// safe to call concurrently with Serve.
func (s *Server) Shutdown() {
	s.connMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
	}
	open := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		open = append(open, c)
	}
	s.connMu.Unlock()
	// Waking the read side is the drain: a goroutine blocked in readFrame
	// returns immediately with a deadline error and exits its loop; one
	// that is mid-handle finishes the handle, writes and flushes the
	// response (the write side is untouched), then hits the expired
	// deadline on its next read.
	past := time.Now().Add(-time.Second)
	for _, c := range open {
		_ = c.SetReadDeadline(past)
	}
	done := make(chan struct{})
	go func() {
		s.active.Wait()
		close(done)
	}()
	timeout := s.DrainTimeout
	if timeout <= 0 {
		timeout = defaultDrainTimeout
	}
	select {
	case <-done:
	case <-time.After(timeout):
		s.connMu.Lock()
		for c := range s.conns {
			_ = c.Close()
		}
		s.connMu.Unlock()
		<-done
	}
}

// connState is one connection's accounting and rate-limit state, resolved
// at handshake so the per-frame path only bumps atomics and bucket floats.
type connState struct {
	stats  *server.ConnStats
	reqSeq uint
	// Token bucket (enabled when rate > 0): tokens refill at rate/sec up
	// to burst; each served op spends one.
	rate, burst, tokens float64
	last                time.Time
}

// allow spends one rate-limit token, refilling from the elapsed time.
func (cs *connState) allow(now time.Time) bool {
	cs.tokens += now.Sub(cs.last).Seconds() * cs.rate
	cs.last = now
	if cs.tokens > cs.burst {
		cs.tokens = cs.burst
	}
	if cs.tokens < 1 {
		return false
	}
	cs.tokens--
	return true
}

// ServeConn serves one connection until the peer disconnects or breaks
// framing. All per-request state lives in buffers reused across the
// connection's lifetime, so a settled connection allocates only what the
// core retains (task records, label vectors).
//
//clamshell:hotpath
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	s.connMu.Lock()
	if s.closed {
		s.connMu.Unlock()
		return
	}
	s.conns[conn] = struct{}{}
	s.active.Add(1)
	s.connMu.Unlock()
	defer func() {
		s.connMu.Lock()
		delete(s.conns, conn)
		s.connMu.Unlock()
		s.active.Done()
	}()
	br := bufio.NewReaderSize(conn, 8<<10)
	bw := bufio.NewWriterSize(conn, 8<<10)
	// A silent peer must not pin this goroutine: the preamble gets a read
	// deadline, cleared once the preamble exchange completes (the request
	// loop's liveness is the peer's business — workers legitimately idle).
	hsTimeout := s.HandshakeTimeout
	if hsTimeout <= 0 {
		hsTimeout = defaultHandshakeTimeout
	}
	if err := conn.SetReadDeadline(time.Now().Add(hsTimeout)); err != nil {
		return
	}
	if err := serverHandshake(br, bw); err != nil {
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return
	}
	// Per-connection accounting resolves once at handshake; the per-frame
	// path only bumps the cell's atomics.
	cs := &connState{}
	if s.obs != nil {
		remote := ""
		if addr := conn.RemoteAddr(); addr != nil {
			remote = addr.String()
		}
		cs.stats = s.obs.Conn(remote)
	}
	if s.RateLimit > 0 {
		cs.rate = s.RateLimit
		cs.burst = s.RateLimit
		if cs.burst < 1 {
			cs.burst = 1
		}
		cs.tokens = cs.burst
		cs.last = time.Now()
	}
	s.serve(br, bw, cs)
}

// serve is the request loop: each frame is an envelope of tagged
// sub-requests, answered with one envelope of equally tagged
// sub-responses — one write(2) and one CRC however many ops the client
// coalesced. A clean disconnect ends the loop. Framing corruption (bad
// CRC, oversized length) and envelope-level violations (hostile count,
// sub-framing that doesn't add up) cannot be resynchronized or attributed
// to a tag, so they drop the connection; malformed sub-request *payloads*
// are answered in-band under their tag.
func (s *Server) serve(br *bufio.Reader, bw *bufio.Writer, cs *connState) {
	var reqBuf, envBuf, subBuf []byte
	for {
		payload, err := readFrame(br, reqBuf)
		if err != nil {
			return
		}
		reqBuf = payload[:0:cap(payload)]
		batch, err := newBatchReader(payload)
		if err != nil {
			return
		}
		envBuf = binary.AppendUvarint(envBuf[:0], uint64(batch.n))
		mut := false
		for {
			tag, body, ok, err := batch.next()
			if err != nil {
				return
			}
			if !ok {
				break
			}
			mut = mut || (len(body) > 0 && mutatingOp(body[0]))
			subBuf = s.serveRequest(body, subBuf[:0], cs)
			// Budget guard: a sub-response that would push the envelope past
			// MaxFrame (e.g. an assignment whose records were enqueued over
			// HTTP, which has no size cap) is replaced with an in-band error
			// under its tag. Dropping the connection instead would re-deliver
			// the same in-flight assignment on reconnect and wedge the worker
			// on it forever. 2×MaxVarintLen64 covers the tag+length headers.
			if len(envBuf)+2*binary.MaxVarintLen64+len(subBuf) > MaxFrame {
				subBuf = appendError(subBuf[:0], stBadRequest, ErrTooLarge.Error())
			}
			envBuf = appendSub(envBuf, tag, subBuf)
		}
		if mut && s.Barrier != nil {
			// One barrier per envelope, not per sub-op: the frame's ack (the
			// response envelope) is withheld until every mutating op it
			// carried is follower-durable.
			s.Barrier()
		}
		if err := writeFrame(bw, envBuf); err != nil {
			return
		}
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// serveRequest decodes, rate-limits, dispatches, and instruments one
// sub-request body, appending the sub-response body to respBuf.
func (s *Server) serveRequest(payload, respBuf []byte, cs *connState) []byte {
	if len(payload) > 0 && payload[0] >= opSnapshot {
		// Control-plane opcodes bypass rate limiting and per-op worker
		// instrumentation (the obs arrays are sized for worker ops, and a
		// throttled replication pull would slow recovery exactly when it
		// matters most).
		return s.serveControl(payload, respBuf)
	}
	if cs.rate > 0 && !cs.allow(time.Now()) {
		if cs.stats != nil {
			cs.stats.Throttled.Add(1)
		}
		return appendError(respBuf, stThrottled, ErrThrottled.Error())
	}
	if s.obs == nil {
		if req, err := decodeRequest(payload); err != nil {
			// The frame was intact (CRC passed) but the payload is not a
			// well-formed request: answer the error in-band; framing is
			// still synchronized.
			return appendError(respBuf, stBadRequest, err.Error())
		} else {
			return s.handle(req, respBuf)
		}
	}
	// Op counts are exact; the latency sketches see a 1-in-8
	// uniform sample (and the decode split 1-in-64, a subset of
	// it), starting with the connection's first request so
	// low-traffic surfaces still get observations. Sampling keeps
	// the hot path at zero clock reads for 7 of 8 requests — on a
	// machine without a vDSO clock, bracketing every request with
	// three reads costs several percent of the op budget, which is
	// exactly the regression this plane must not introduce.
	cs.reqSeq++
	sampled := cs.reqSeq&7 == 1
	var t0 time.Time
	if sampled {
		t0 = s.obs.Now()
	}
	req, err := decodeRequest(payload)
	start := t0
	if sampled && cs.reqSeq&63 == 1 {
		start = s.obs.Now()
		s.obs.WireDecode.Record(start.Sub(t0).Seconds())
	}
	if err != nil {
		cs.stats.DecodeErrors.Add(1)
		return appendError(respBuf, stBadRequest, err.Error())
	}
	cs.stats.Ops.Add(1)
	respBuf = s.handle(req, respBuf)
	// Wire opcodes are Op+1 by construction (see server.Op).
	if op := server.Op(req.op) - 1; sampled {
		s.obs.Wire.Observe(op, s.obs.Now().Sub(start).Seconds())
	} else {
		s.obs.Wire.Tick(op)
	}
	return respBuf
}

// mutatingOp reports whether an opcode can change shard state (and so
// must be covered by the replication barrier before its ack goes out).
func mutatingOp(op byte) bool {
	switch op {
	case opJoin, opLeave, opEnqueue, opFetch, opSubmit:
		return true
	}
	return false
}

// serveControl dispatches the control-plane opcodes (replication pulls,
// snapshot reads). It runs once per follower pull or operator read, far
// off the worker hot path, and the fabric surfaces behind it marshal JSON
// — hence the cold annotation.
//
//clamshell:coldpath
func (s *Server) serveControl(payload, respBuf []byte) []byte {
	switch payload[0] {
	case opSnapshot:
		if err := decodeSnapshotReq(payload); err != nil {
			return appendError(respBuf, stBadRequest, err.Error())
		}
		if s.snap == nil {
			return appendError(respBuf, stUnavailable, "wire: no snapshot source")
		}
		data, err := s.snap.SnapshotBytes()
		if err != nil {
			return appendError(respBuf, stBadRequest, err.Error())
		}
		respBuf = append(respBuf, stOK)
		return append(respBuf, data...)
	case opReplPull:
		req, err := decodeReplPull(payload)
		if err != nil {
			return appendError(respBuf, stBadRequest, err.Error())
		}
		if s.repl == nil {
			return appendError(respBuf, stUnavailable, "wire: no replication source")
		}
		ch, err := s.repl.ReplRead(req, s.quit)
		if err != nil {
			return appendError(respBuf, stBadRequest, err.Error())
		}
		return appendReplChunk(respBuf, ch)
	default:
		return appendError(respBuf, stBadRequest, "wire: unknown opcode")
	}
}

// handle dispatches one decoded request to the core and appends the
// response encoding to buf.
func (s *Server) handle(req request, buf []byte) []byte {
	switch req.op {
	case opJoin:
		id := s.core.CoreJoin(req.name)
		if id == 0 {
			// A router with every downstream node unreachable admits nobody;
			// in-band unavailability keeps the connection healthy for the
			// retry (the node may be back by then).
			return appendError(buf, stUnavailable, server.ErrUnavailable.Error())
		}
		buf = append(buf, stOK)
		return appendUint(buf, id)
	case opHeartbeat:
		if !s.core.CoreHeartbeat(req.worker) {
			return appendError(buf, stNotFound, server.ErrUnknownWorker.Error())
		}
		return append(buf, stOK)
	case opLeave:
		s.core.CoreLeave(req.worker)
		return append(buf, stOK)
	case opEnqueue:
		ids, err := s.core.CoreEnqueue(req.specs)
		if err != nil {
			return appendError(buf, stBadRequest, err.Error())
		}
		return appendIDs(buf, ids)
	case opFetch:
		a, disp := s.core.CoreFetch(req.worker)
		switch disp {
		case server.FetchNoWork:
			return append(buf, stNoWork)
		case server.FetchGoneRetired:
			return appendError(buf, stGone, server.ErrNoMoreTasks.Error())
		case server.FetchNoWorker:
			return appendError(buf, stNotFound, server.ErrUnknownWorker.Error())
		case server.FetchUnavailable:
			return appendError(buf, stUnavailable, server.ErrUnavailable.Error())
		default:
			return appendAssignment(buf, a)
		}
	case opSubmit:
		reply, cerr := s.core.CoreSubmit(req.worker, req.task, req.labels)
		switch {
		case cerr != nil && cerr.NotFound:
			return appendError(buf, stNotFound, cerr.Err.Error())
		case cerr != nil:
			return appendError(buf, stBadRequest, cerr.Err.Error())
		default:
			buf = append(buf, stOK)
			var flags byte
			if reply.Accepted {
				flags |= flagAccepted
			}
			if reply.Terminated {
				flags |= flagTerminated
			}
			return append(buf, flags)
		}
	case opResult:
		st, ok := s.core.CoreResult(req.task)
		if !ok {
			return appendError(buf, stNotFound, server.ErrUnknownTask.Error())
		}
		return appendTaskStatus(buf, st)
	default:
		return appendError(buf, stBadRequest, "wire: unknown opcode")
	}
}

// IsClosed reports whether err is the benign end of a Serve loop (listener
// closed) rather than a real accept failure.
func IsClosed(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF)
}
