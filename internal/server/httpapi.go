package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
)

// The JSON/HTTP facade over Core: the compatibility and control transport
// (the high-rate worker path is the binary wire protocol). The hot ops
// (join, enqueue, fetch, submit, leave/heartbeat, plus result) are
// registered here once, over any Core: the fabric mounts them beside its
// aggregate endpoints, and tests mount them over a bare Shard. Request
// bodies are RFC 8259 JSON decoded by encoding/json, like every other
// endpoint (a repeated key takes the last value); each is read into a
// pooled buffer, capped at maxBody, before it is decoded. Responses go
// through WriteJSON, and the three constant ones are preencoded.

// RegisterCoreRoutes mounts the hot protocol endpoints for a Core
// implementation on mux. Cores that expose an observation plane (Obs) get
// per-op service-time sketches recorded around each handler; the clock is
// the Core's own, so fake-clock tests see deterministic (zero) durations.
func RegisterCoreRoutes(mux *http.ServeMux, c Core) {
	obs := coreObs(c)
	wrap := func(op Op, h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
		if obs == nil {
			return h
		}
		return func(w http.ResponseWriter, r *http.Request) {
			t0 := obs.now()
			h(w, r)
			obs.HTTP.Observe(op, obs.now().Sub(t0).Seconds())
		}
	}
	mux.HandleFunc("POST /api/join", wrap(OpKindJoin, func(w http.ResponseWriter, r *http.Request) { handleCoreJoin(w, r, c) }))
	mux.HandleFunc("POST /api/heartbeat", wrap(OpKindHeartbeat, func(w http.ResponseWriter, r *http.Request) { handleCoreHeartbeat(w, r, c) }))
	mux.HandleFunc("POST /api/leave", wrap(OpKindLeave, func(w http.ResponseWriter, r *http.Request) { handleCoreLeave(w, r, c) }))
	mux.HandleFunc("POST /api/tasks", wrap(OpKindEnqueue, func(w http.ResponseWriter, r *http.Request) { handleCoreEnqueue(w, r, c) }))
	mux.HandleFunc("GET /api/task", wrap(OpKindFetch, func(w http.ResponseWriter, r *http.Request) { handleCoreFetch(w, r, c) }))
	mux.HandleFunc("POST /api/submit", wrap(OpKindSubmit, func(w http.ResponseWriter, r *http.Request) { handleCoreSubmit(w, r, c) }))
	mux.HandleFunc("GET /api/result", wrap(OpKindResult, func(w http.ResponseWriter, r *http.Request) { handleCoreResult(w, r, c) }))
}

// maxBody caps a hot-endpoint request body, like wire.MaxFrame and
// journal.MaxRecord: a larger body is refused with 413 once this many
// bytes have been read, rather than buffered whole.
const maxBody = 1 << 24 // 16 MiB

// errBadJSON stands for every JSON syntax error, so the error body does
// not depend on the decoder's wording.
var errBadJSON = errors.New("malformed JSON body")

var errBodyTooLarge = errors.New("request body exceeds 16 MiB")

// bufPool recycles request-body buffers across requests on the hot path.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }

// readBody drains the request body into a pooled buffer, failing with
// errBodyTooLarge past maxBody. The caller must putBuf it back.
func readBody(r *http.Request) (*[]byte, error) {
	bp := getBuf()
	buf := *bp
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):min(cap(buf), maxBody+1)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBody {
			err = errBodyTooLarge
		}
		*bp = buf
		if err == io.EOF {
			return bp, nil
		}
		if err != nil {
			putBuf(bp)
			return nil, err
		}
	}
}

// decodeBody reads r's body and unmarshals it into v. On failure it
// writes the error response, prefixed with what, and reports false.
func decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	bp, err := readBody(r)
	if err == nil {
		err = json.Unmarshal(*bp, v)
		putBuf(bp)
		var syntax *json.SyntaxError
		if errors.As(err, &syntax) {
			err = errBadJSON
		}
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	if errors.Is(err, errBodyTooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeCoreErr(w, status, fmt.Errorf("%s: %w", what, err))
	return false
}

// Preencoded constant responses (trailing newline as WriteJSON writes).
var (
	respOK         = []byte("{\"ok\":true}\n")
	respAccepted   = []byte("{\"accepted\":true,\"terminated\":false}\n")
	respTerminated = []byte("{\"accepted\":false,\"terminated\":true}\n")
)

func writeRaw(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// writeCoreErr writes the protocol's error body.
func writeCoreErr(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, struct {
		Error string `json:"error"`
	}{err.Error()})
}

func handleCoreJoin(w http.ResponseWriter, r *http.Request, c Core) {
	var req struct {
		Name string `json:"name"`
	}
	if !decodeBody(w, r, "decoding join request", &req) {
		return
	}
	id := c.CoreJoin(req.Name)
	if id == 0 {
		// A router with no reachable node admits nobody (see ErrUnavailable).
		writeCoreErr(w, http.StatusServiceUnavailable, ErrUnavailable)
		return
	}
	WriteJSON(w, http.StatusOK, struct {
		WorkerID int `json:"worker_id"`
	}{id})
}

func handleCoreHeartbeat(w http.ResponseWriter, r *http.Request, c Core) {
	id, ok := workerIDBody(w, r)
	if !ok {
		return
	}
	if !c.CoreHeartbeat(id) {
		writeCoreErr(w, http.StatusNotFound, ErrUnknownWorker)
		return
	}
	writeRaw(w, http.StatusOK, respOK)
}

func handleCoreLeave(w http.ResponseWriter, r *http.Request, c Core) {
	id, ok := workerIDBody(w, r)
	if !ok {
		return
	}
	c.CoreLeave(id)
	writeRaw(w, http.StatusOK, respOK)
}

// workerIDBody decodes a {"worker_id":N} request body, which must name the
// worker. On failure it writes the 400 response and reports false.
func workerIDBody(w http.ResponseWriter, r *http.Request) (int, bool) {
	var req struct {
		WorkerID *int `json:"worker_id"`
	}
	if !decodeBody(w, r, "decoding body", &req) {
		return 0, false
	}
	if req.WorkerID == nil {
		writeCoreErr(w, http.StatusBadRequest, errors.New(`decoding body: missing field "worker_id"`))
		return 0, false
	}
	return *req.WorkerID, true
}

func handleCoreEnqueue(w http.ResponseWriter, r *http.Request, c Core) {
	var req struct {
		Tasks []TaskSpec `json:"tasks"`
	}
	if !decodeBody(w, r, "decoding tasks", &req) {
		return
	}
	ids, err := c.CoreEnqueue(req.Tasks)
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, struct {
		TaskIDs []int `json:"task_ids"`
	}{ids})
}

func handleCoreFetch(w http.ResponseWriter, r *http.Request, c Core) {
	id, err := intQuery(r, "worker_id")
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, err)
		return
	}
	a, disp := c.CoreFetch(id)
	switch disp {
	case FetchNoWork:
		w.WriteHeader(http.StatusNoContent)
	case FetchGoneRetired:
		writeCoreErr(w, http.StatusGone, ErrNoMoreTasks)
	case FetchNoWorker:
		writeCoreErr(w, http.StatusNotFound, ErrUnknownWorker)
	case FetchUnavailable:
		writeCoreErr(w, http.StatusServiceUnavailable, ErrUnavailable)
	default:
		WriteJSON(w, http.StatusOK, a)
	}
}

func handleCoreSubmit(w http.ResponseWriter, r *http.Request, c Core) {
	var req struct {
		WorkerID int   `json:"worker_id"`
		TaskID   int   `json:"task_id"`
		Labels   []int `json:"labels"`
	}
	if !decodeBody(w, r, "decoding answer", &req) {
		return
	}
	reply, cerr := c.CoreSubmit(req.WorkerID, req.TaskID, req.Labels)
	switch {
	case cerr != nil && cerr.NotFound:
		writeCoreErr(w, http.StatusNotFound, cerr.Err)
	case cerr != nil:
		writeCoreErr(w, http.StatusBadRequest, cerr.Err)
	case reply.Terminated:
		writeRaw(w, http.StatusOK, respTerminated)
	default:
		writeRaw(w, http.StatusOK, respAccepted)
	}
}

func handleCoreResult(w http.ResponseWriter, r *http.Request, c Core) {
	id, err := intQuery(r, "task_id")
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, err)
		return
	}
	st, ok := c.CoreResult(id)
	if !ok {
		writeCoreErr(w, http.StatusNotFound, ErrUnknownTask)
		return
	}
	WriteJSON(w, http.StatusOK, st)
}
