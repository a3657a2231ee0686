package wire

import (
	"bufio"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"

	"github.com/clamshell/clamshell/internal/server"
)

// ErrPoisoned reports a client whose connection was torn down after a
// framing-level failure. After a checksum mismatch, oversized frame, short
// read, or write error the stream position is undefined — a later reply
// could be misparsed as belonging to the wrong request — so the client
// closes the connection and every subsequent call fails fast with an error
// wrapping this one (and the original failure). Dial a fresh client to
// continue.
var ErrPoisoned = errors.New("wire: client poisoned by earlier framing error")

// errDesync reports a response envelope that does not line up with what
// was sent (count or tag mismatch) — a server bug or stream corruption
// either way, so it poisons the client like any framing failure.
var errDesync = errors.New("wire: response does not match request tags")

// Client is a Go client for the wire transport, with the same method
// shapes as server.Client so worker drivers can switch transports behind
// one interface. A Client owns one persistent connection; methods are
// serialized by an internal mutex, so give each concurrent worker
// goroutine its own Client for parallelism.
//
// Each single-op method sends a batch of one. Independent ops can be
// coalesced into one frame — one write(2), one CRC, one response wake-up
// for the lot — via NewBatch, or the purpose-built SubmitAndFetch.
type Client struct {
	mu      sync.Mutex
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	err     error // sticky poison: set on any framing-level failure
	nextTag uint64
	wbuf    []byte // envelope encoding buffer
	sbuf    []byte // sub-request scratch buffer
	rbuf    []byte // response frame buffer
}

// Dial connects to a wire server and performs the handshake.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClientOrClose(conn)
}

// DialTLS connects over TLS and performs the handshake. cfg may be nil for
// the default configuration (the usual tls.Config knobs — RootCAs,
// ServerName, InsecureSkipVerify — all apply).
func DialTLS(addr string, cfg *tls.Config) (*Client, error) {
	conn, err := tls.Dial("tcp", addr, cfg)
	if err != nil {
		return nil, err
	}
	return newClientOrClose(conn)
}

// newClientOrClose is NewClient for a connection the caller dialed: a
// failed handshake closes it (best-effort; the handshake error is what
// surfaces).
func newClientOrClose(conn net.Conn) (*Client, error) {
	c, err := NewClient(conn)
	if err != nil {
		_ = conn.Close()
		return nil, err
	}
	return c, nil
}

// NewClient wraps an established connection (TCP, net.Pipe, ...) and
// performs the handshake.
func NewClient(conn net.Conn) (*Client, error) {
	c := &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 8<<10),
		bw:   bufio.NewWriterSize(conn, 8<<10),
	}
	if err := clientHandshake(c.br, c.bw); err != nil {
		return nil, err
	}
	return c, nil
}

// Close closes the connection. Unlike the other methods it does not wait
// for an in-flight call: closing from another goroutine aborts that call
// (it fails, poisoned), which is how a blocked call is cancelled.
func (c *Client) Close() error {
	return c.conn.Close()
}

// poison records a framing-level failure, tears down the connection, and
// returns the sticky error every later call will see. Callers hold mu.
func (c *Client) poison(err error) error {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %w", ErrPoisoned, err)
		_ = c.conn.Close()
	}
	return c.err
}

// exchange writes c.wbuf as one frame and reads the response frame.
// Any mid-stream failure is framing-level by definition and poisons the
// client; an oversized payload is rejected before any byte is written, so
// the connection stays usable. Callers hold mu.
func (c *Client) exchange() ([]byte, error) {
	if len(c.wbuf) > MaxFrame {
		return nil, ErrTooLarge
	}
	if err := writeFrame(c.bw, c.wbuf); err != nil {
		return nil, c.poison(err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, c.poison(err)
	}
	payload, err := readFrame(c.br, c.rbuf)
	if err != nil {
		return nil, c.poison(err)
	}
	c.rbuf = payload[:0:cap(payload)]
	return payload, nil
}

// roundTrip sends req and returns the response body and its status.
// The returned reader's buffer is valid until the next call. Callers hold
// mu.
func (c *Client) roundTrip(req request) (reader, byte, error) {
	c.sbuf = encodeRequest(c.sbuf[:0], req)
	return c.roundTripRaw(c.sbuf)
}

// roundTripRaw sends one pre-encoded request body as a batch of one and
// returns the response body and its status. Callers hold mu; body may
// alias c.sbuf but not c.wbuf.
func (c *Client) roundTripRaw(body []byte) (reader, byte, error) {
	if c.err != nil {
		return reader{}, 0, c.err
	}
	tag := c.nextTag
	c.nextTag++
	c.wbuf = binary.AppendUvarint(c.wbuf[:0], 1)
	c.wbuf = appendSub(c.wbuf, tag, body)
	payload, err := c.exchange()
	if err != nil {
		return reader{}, 0, err
	}
	batch, err := newBatchReader(payload)
	if err != nil {
		return reader{}, 0, c.poison(err)
	}
	rtag, rbody, ok, err := batch.next()
	if err != nil {
		return reader{}, 0, c.poison(err)
	}
	if !ok || rtag != tag || batch.n != 0 {
		return reader{}, 0, c.poison(errDesync)
	}
	r := reader{b: rbody}
	status, err := r.byte()
	if err != nil {
		return r, 0, err
	}
	return r, status, nil
}

// StatusError is an in-band non-OK response: the op that failed, the wire
// status and the server's message, preserved as a typed error so remote
// callers (the fabric router's remote shards) can map it back to the
// core's dispositions instead of string-matching. Error renders the same
// "op: message" text the historical plain errors carried.
type StatusError struct {
	Op     string
	Status byte
	Msg    string
}

func (e *StatusError) Error() string { return e.Op + ": " + e.Msg }

// Unwrap exposes the canonical sentinel behind well-known statuses, so
// errors.Is(err, ErrThrottled) and errors.Is(err, server.ErrUnavailable)
// work across the wire.
func (e *StatusError) Unwrap() error {
	switch e.Status {
	case stThrottled:
		return ErrThrottled
	case stUnavailable:
		return server.ErrUnavailable
	}
	return nil
}

// Gone reports a retired-worker refusal (HTTP 410 equivalent).
func (e *StatusError) Gone() bool { return e.Status == stGone }

// NotFound reports an unknown-worker/task refusal (HTTP 404 equivalent).
func (e *StatusError) NotFound() bool { return e.Status == stNotFound }

// Unavailable reports a shard/node-down refusal (HTTP 503 equivalent).
func (e *StatusError) Unavailable() bool { return e.Status == stUnavailable }

// respError turns a non-OK response into a Go error named after the op.
// Throttle refusals wrap ErrThrottled so callers can back off on
// errors.Is rather than string matching.
func respError(op string, status byte, r *reader) error {
	if status == stThrottled {
		return &StatusError{Op: op, Status: status, Msg: ErrThrottled.Error()}
	}
	return &StatusError{Op: op, Status: status, Msg: r.rest()}
}

// The single-op methods below decode through the same fill as their
// batched counterparts, called on a stack value so the response reader
// stays off the heap.

// Join admits a worker and returns its id.
func (c *Client) Join(name string) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var f JoinResult
	f.fill(c.roundTrip(request{op: opJoin, name: name}))
	return f.ID, f.Err
}

// Heartbeat keeps the worker alive while waiting.
func (c *Client) Heartbeat(workerID int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := OpResult{op: "heartbeat"}
	f.fill(c.roundTrip(request{op: opHeartbeat, worker: workerID}))
	return f.Err
}

// Leave removes the worker from the pool.
func (c *Client) Leave(workerID int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	f := OpResult{op: "leave"}
	f.fill(c.roundTrip(request{op: opLeave, worker: workerID}))
	return f.Err
}

// SubmitTasks enqueues tasks and returns their ids.
func (c *Client) SubmitTasks(tasks []server.TaskSpec) ([]int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var f EnqueueResult
	f.fill(c.roundTrip(request{op: opEnqueue, specs: tasks}))
	return f.IDs, f.Err
}

// FetchTask polls for work. ok is false when no work is available yet.
func (c *Client) FetchTask(workerID int) (a server.Assignment, ok bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var f FetchResult
	f.fill(c.roundTrip(request{op: opFetch, worker: workerID}))
	return f.Assignment, f.OK, f.Err
}

// Submit sends a completed assignment. terminated reports that the task
// had already been completed by a faster worker (the work is still paid).
func (c *Client) Submit(workerID, taskID int, labels []int) (accepted, terminated bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var f SubmitResult
	f.fill(c.roundTrip(request{op: opSubmit, worker: workerID, task: taskID, labels: labels}))
	return f.Accepted, f.Terminated, f.Err
}

// Result fetches a task's status and consensus labels.
func (c *Client) Result(taskID int) (server.TaskStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var f ResultStatus
	f.fill(c.roundTrip(request{op: opResult, task: taskID}))
	return f.Status, f.Err
}

// ReplPull issues one journal-shipping pull (see ReplPullRequest). The
// returned chunk's byte slices are owned by the caller.
func (c *Client) ReplPull(req ReplPullRequest) (ReplChunk, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sbuf = encodeReplPull(c.sbuf[:0], req)
	r, status, err := c.roundTripRaw(c.sbuf)
	if err != nil {
		return ReplChunk{}, err
	}
	if status != stOK {
		return ReplChunk{}, respError("repl pull", status, &r)
	}
	return decodeReplChunk(&r)
}

// SnapshotJSON reads the node's full state snapshot — the same JSON the
// HTTP /api/snapshot endpoint serves — over the wire connection.
func (c *Client) SnapshotJSON() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sbuf = encodeSnapshotReq(c.sbuf[:0])
	r, status, err := c.roundTripRaw(c.sbuf)
	if err != nil {
		return nil, err
	}
	if status != stOK {
		return nil, respError("snapshot", status, &r)
	}
	return []byte(r.rest()), nil
}

// SubmitAndFetch coalesces the worker loop's natural op pair — submit the
// finished assignment, fetch the next one — into a single frame each way.
// err reports transport failures and the submit's in-band error; a
// fetch-side in-band error also surfaces through err, after the submit
// results.
func (c *Client) SubmitAndFetch(workerID, taskID int, labels []int) (accepted, terminated bool, a server.Assignment, ok bool, err error) {
	b := c.NewBatch()
	sr := b.Submit(workerID, taskID, labels)
	fr := b.FetchTask(workerID)
	if err := b.Do(); err != nil {
		return false, false, a, false, err
	}
	if sr.Err != nil {
		return false, false, fr.Assignment, fr.OK, sr.Err
	}
	return sr.Accepted, sr.Terminated, fr.Assignment, fr.OK, fr.Err
}

// --- batches ---

// future is one op's result slot. fill decodes the op's sub-response
// body r, whose status byte has been read; a non-nil err — a transport
// failure, or a body too short to hold a status — becomes the slot's
// error instead.
type future interface {
	fill(r reader, status byte, err error)
}

// JoinResult is a batched Join's outcome.
type JoinResult struct {
	ID  int
	Err error
}

func (f *JoinResult) fill(r reader, status byte, err error) {
	switch {
	case err != nil:
		f.Err = err
	case status != stOK:
		f.Err = respError("join", status, &r)
	default:
		if f.ID, f.Err = r.uint(); f.Err == nil {
			f.Err = r.done()
		}
	}
}

// OpResult is a batched Heartbeat or Leave outcome.
type OpResult struct {
	Err error
	op  string // names the op in in-band errors: "heartbeat" or "leave"
}

func (f *OpResult) fill(r reader, status byte, err error) {
	switch {
	case err != nil:
		f.Err = err
	case status != stOK:
		f.Err = respError(f.op, status, &r)
	default:
		f.Err = r.done()
	}
}

// EnqueueResult is a batched SubmitTasks outcome.
type EnqueueResult struct {
	IDs []int
	Err error
}

func (f *EnqueueResult) fill(r reader, status byte, err error) {
	switch {
	case err != nil:
		f.Err = err
	case status != stOK:
		f.Err = respError("tasks", status, &r)
	default:
		f.IDs, f.Err = decodeIDs(&r)
	}
}

// FetchResult is a batched FetchTask outcome; OK is false when the server
// had no work for the worker.
type FetchResult struct {
	Assignment server.Assignment
	OK         bool
	Err        error
}

func (f *FetchResult) fill(r reader, status byte, err error) {
	switch {
	case err != nil:
		f.Err = err
	case status == stNoWork:
		f.Err = r.done()
	case status == stOK:
		f.Assignment, f.Err = decodeAssignment(&r)
		f.OK = f.Err == nil
	default:
		f.Err = respError("fetch task", status, &r)
	}
}

// SubmitResult is a batched Submit outcome.
type SubmitResult struct {
	Accepted   bool
	Terminated bool
	Err        error
}

func (f *SubmitResult) fill(r reader, status byte, err error) {
	switch {
	case err != nil:
		f.Err = err
	case status != stOK:
		f.Err = respError("submit", status, &r)
	default:
		flags, err := r.byte()
		if err == nil {
			err = r.done()
		}
		f.Accepted, f.Terminated, f.Err = flags&flagAccepted != 0, flags&flagTerminated != 0, err
	}
}

// ResultStatus is a batched Result outcome.
type ResultStatus struct {
	Status server.TaskStatus
	Err    error
}

func (f *ResultStatus) fill(r reader, status byte, err error) {
	switch {
	case err != nil:
		f.Err = err
	case status != stOK:
		f.Err = respError("result", status, &r)
	default:
		f.Status, f.Err = decodeTaskStatus(&r)
	}
}

// Batch collects independent ops to send as tagged sub-requests in as few
// frames as possible: one envelope frame per MaxBatch ops (or per
// MaxFrame of encoding), one write(2) and one response wake-up each. Ops
// are applied by the server in batch order, exactly as if issued
// sequentially — batch only ops whose *requests* don't depend on an
// earlier op's response.
//
// Each method returns a result slot that is valid after Do and until the
// next Reset. A Batch is not safe for concurrent use; build it in one
// goroutine, then Do.
type Batch struct {
	c      *Client
	bodies []byte // concatenated encoded sub-request bodies
	ends   []int  // bodies end offset per op
	futs   []future

	// Recycled result slots, one pool per type (see slotPool).
	joins    slotPool[JoinResult]
	ops      slotPool[OpResult]
	enqueues slotPool[EnqueueResult]
	fetches  slotPool[FetchResult]
	submits  slotPool[SubmitResult]
	statuses slotPool[ResultStatus]
}

// slotPool recycles one result type's slots across Reset rounds, so a
// steady-state flush-per-round loop allocates nothing per op. Pointers
// are stable for the round they were handed out in; Reset hands them out
// again.
type slotPool[T any] struct {
	slots []*T
	used  int
}

func (p *slotPool[T]) get() *T {
	if p.used < len(p.slots) {
		f := p.slots[p.used]
		p.used++
		var zero T
		*f = zero
		return f
	}
	f := new(T)
	p.slots = append(p.slots, f)
	p.used++
	return f
}

// NewBatch starts an empty batch on c's connection.
func (c *Client) NewBatch() *Batch {
	return &Batch{c: c}
}

// Len returns the number of ops collected so far.
func (b *Batch) Len() int { return len(b.futs) }

// Reset empties the batch for reuse, keeping its encoding buffers and
// recycling its result slots — the zero-allocation path for hot loops
// that flush a batch per round. Slots handed out before the Reset are
// overwritten by ops added after it: copy anything you still need out of
// them first.
func (b *Batch) Reset() {
	b.bodies = b.bodies[:0]
	b.ends = b.ends[:0]
	for i := range b.futs {
		b.futs[i] = nil
	}
	b.futs = b.futs[:0]
	b.joins.used = 0
	b.ops.used = 0
	b.enqueues.used = 0
	b.fetches.used = 0
	b.submits.used = 0
	b.statuses.used = 0
}

func (b *Batch) add(req request, f future) {
	b.bodies = encodeRequest(b.bodies, req)
	b.ends = append(b.ends, len(b.bodies))
	b.futs = append(b.futs, f)
}

// Join adds a worker admission to the batch.
func (b *Batch) Join(name string) *JoinResult {
	f := b.joins.get()
	b.add(request{op: opJoin, name: name}, f)
	return f
}

// Heartbeat adds a keep-alive to the batch.
func (b *Batch) Heartbeat(workerID int) *OpResult {
	f := b.ops.get()
	f.op = "heartbeat"
	b.add(request{op: opHeartbeat, worker: workerID}, f)
	return f
}

// Leave adds a pool departure to the batch.
func (b *Batch) Leave(workerID int) *OpResult {
	f := b.ops.get()
	f.op = "leave"
	b.add(request{op: opLeave, worker: workerID}, f)
	return f
}

// SubmitTasks adds a task enqueue to the batch.
func (b *Batch) SubmitTasks(tasks []server.TaskSpec) *EnqueueResult {
	f := b.enqueues.get()
	b.add(request{op: opEnqueue, specs: tasks}, f)
	return f
}

// FetchTask adds a work poll to the batch.
func (b *Batch) FetchTask(workerID int) *FetchResult {
	f := b.fetches.get()
	b.add(request{op: opFetch, worker: workerID}, f)
	return f
}

// Submit adds an answer submission to the batch.
func (b *Batch) Submit(workerID, taskID int, labels []int) *SubmitResult {
	f := b.submits.get()
	b.add(request{op: opSubmit, worker: workerID, task: taskID, labels: labels}, f)
	return f
}

// Result adds a task-status read to the batch.
func (b *Batch) Result(taskID int) *ResultStatus {
	f := b.statuses.get()
	b.add(request{op: opResult, task: taskID}, f)
	return f
}

// Do sends the batch and fills every result slot. The returned error is
// transport-level (connection poisoned or already dead); per-op outcomes
// — including in-band errors — land in the slots. On a transport error
// the slots of unexchanged ops carry the same error. Reset the batch to
// reuse it after Do; adding more ops without a Reset re-sends the old
// ones.
func (b *Batch) Do() error {
	c := b.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		b.failFrom(0, c.err)
		return c.err
	}
	if len(b.futs) == 0 {
		return nil
	}
	n := len(b.futs)
	sent := 0
	for sent < n {
		// Greedy chunk: as many ops as fit under MaxBatch and MaxFrame.
		chunk := 0
		size := binary.MaxVarintLen64 // count header
		start := b.bodyStart(sent)
		for sent+chunk < n && chunk < MaxBatch {
			bodyLen := b.ends[sent+chunk] - b.bodyStart(sent+chunk)
			subLen := 2*binary.MaxVarintLen64 + bodyLen
			if chunk > 0 && size+subLen > MaxFrame {
				break
			}
			size += subLen
			chunk++
		}
		baseTag := c.nextTag
		c.nextTag += uint64(chunk)
		c.wbuf = binary.AppendUvarint(c.wbuf[:0], uint64(chunk))
		off := start
		for i := 0; i < chunk; i++ {
			end := b.ends[sent+i]
			c.wbuf = appendSub(c.wbuf, baseTag+uint64(i), b.bodies[off:end])
			off = end
		}
		payload, err := c.exchange()
		if err != nil {
			b.failFrom(sent, err)
			return err
		}
		batch, err := newBatchReader(payload)
		if err != nil || batch.n != chunk {
			err = c.poison(errDesync)
			b.failFrom(sent, err)
			return err
		}
		filled := 0
		for {
			tag, body, ok, berr := batch.next()
			if berr != nil {
				err = c.poison(berr)
				b.failFrom(sent, err)
				return err
			}
			if !ok {
				break
			}
			idx := int(tag - baseTag)
			if tag < baseTag || idx >= chunk || b.futs[sent+idx] == nil {
				err = c.poison(errDesync)
				b.failFrom(sent, err)
				return err
			}
			r := reader{b: body}
			status, serr := r.byte()
			b.futs[sent+idx].fill(r, status, serr)
			b.futs[sent+idx] = nil // filled marker doubles as dup-tag guard
			filled++
		}
		if filled != chunk {
			err = c.poison(errDesync)
			b.failFrom(sent, err)
			return err
		}
		sent += chunk
	}
	return nil
}

// bodyStart returns the offset where op i's encoded body begins.
func (b *Batch) bodyStart(i int) int {
	if i == 0 {
		return 0
	}
	return b.ends[i-1]
}

// failFrom records err on every not-yet-filled slot from index i on.
func (b *Batch) failFrom(i int, err error) {
	for ; i < len(b.futs); i++ {
		if b.futs[i] != nil {
			b.futs[i].fill(reader{}, 0, err)
		}
	}
}
