package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The JSON/HTTP shim over Core: the compatibility and control transport.
// The five hot ops (join, enqueue, fetch, submit, leave/heartbeat — plus
// result) are registered here once, over any Core: the fabric mounts them
// beside its aggregate endpoints, and tests mount them over a bare Shard. The shim is
// scrubbed of per-op allocations: request bodies land in pooled buffers,
// int-field bodies go through a strict hand-rolled decoder instead of a
// map[string]int, responses are built in pooled buffers (canonical ones are
// preallocated), and the hot query strings are parsed without url.Values.

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

// bufPool recycles request-body and response-encoding buffers across
// requests on the hot path.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { *b = (*b)[:0]; bufPool.Put(b) }

// readBody drains the request body into a pooled buffer. The caller must
// putBuf it back (after any retained slices have been copied out).
func readBody(r *http.Request) (*[]byte, error) {
	bp := getBuf()
	buf := *bp
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			*bp = buf
			return bp, nil
		}
		if err != nil {
			*bp = buf
			putBuf(bp)
			return nil, err
		}
	}
}

// Preallocated canonical responses (trailing newline matches the
// historical json.Encoder output).
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

// writeCoreErr writes the protocol's error body from a pooled buffer.
func writeCoreErr(w http.ResponseWriter, status int, err error) {
	bp := getBuf()
	b := append(*bp, `{"error":`...)
	b = appendJSONString(b, err.Error())
	b = append(b, '}', '\n')
	*bp = b
	writeRaw(w, status, b)
	putBuf(bp)
}

// appendJSONString appends s as a JSON string literal, escaping exactly the
// way encoding/json's default (HTML-escaping) encoder does.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c == '"':
				b = append(b, '\\', '"')
			case c == '\\':
				b = append(b, '\\', '\\')
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			case c < 0x20 || c == '<' || c == '>' || c == '&':
				const hex = "0123456789abcdef"
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			default:
				b = append(b, c)
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
			i++
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
			i += size
			continue
		}
		b = append(b, s[i:i+size]...)
		i += size
	}
	return append(b, '"')
}

// intQueryFast parses the single hot query parameter without building
// url.Values. The slow path (extra parameters, percent escapes) falls back
// to the stdlib parser; the error text matches the historical one.
func intQueryFast(r *http.Request, key string) (int, error) {
	q := r.URL.RawQuery
	if strings.HasPrefix(q, key) && len(q) > len(key) && q[len(key)] == '=' {
		val := q[len(key)+1:]
		if !strings.ContainsAny(val, "&%+;") {
			if v, err := strconv.Atoi(val); err == nil {
				return v, nil
			}
			return 0, fmt.Errorf("missing or bad query parameter %q", key)
		}
	}
	return intQuery(r, key)
}

// --- hot-op handlers ---

func handleCoreJoin(w http.ResponseWriter, r *http.Request, c Core) {
	bp, err := readBody(r)
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, fmt.Errorf("decoding join request: %w", err))
		return
	}
	name, err := decodeStringField(*bp, "name")
	putBuf(bp)
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, fmt.Errorf("decoding join request: %w", err))
		return
	}
	id := c.CoreJoin(name)
	if id == 0 {
		// A router with no reachable node admits nobody (see ErrUnavailable).
		writeCoreErr(w, http.StatusServiceUnavailable, ErrUnavailable)
		return
	}
	out := getBuf()
	b := append(*out, `{"worker_id":`...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, '}', '\n')
	*out = b
	writeRaw(w, http.StatusOK, b)
	putBuf(out)
}

func handleCoreHeartbeat(w http.ResponseWriter, r *http.Request, c Core) {
	id, ok := intBody(w, r, "decoding body")
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
	id, ok := intBody(w, r, "decoding body")
	if !ok {
		return
	}
	c.CoreLeave(id)
	writeRaw(w, http.StatusOK, respOK)
}

// intBody reads and strictly decodes a {"worker_id":N} request body. On
// failure it writes the 400 response and reports false.
func intBody(w http.ResponseWriter, r *http.Request, errPrefix string) (int, bool) {
	bp, err := readBody(r)
	if err == nil {
		var id int
		id, err = decodeIntField(*bp, "worker_id")
		putBuf(bp)
		if err == nil {
			return id, true
		}
	}
	writeCoreErr(w, http.StatusBadRequest, fmt.Errorf("%s: %w", errPrefix, err))
	return 0, false
}

func handleCoreEnqueue(w http.ResponseWriter, r *http.Request, c Core) {
	bp, err := readBody(r)
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, fmt.Errorf("decoding tasks: %w", err))
		return
	}
	specs, err := decodeTaskSpecs(*bp)
	putBuf(bp)
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, fmt.Errorf("decoding tasks: %w", err))
		return
	}
	ids, err := c.CoreEnqueue(specs)
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, err)
		return
	}
	out := getBuf()
	b := append(*out, `{"task_ids":[`...)
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, ']', '}', '\n')
	*out = b
	writeRaw(w, http.StatusOK, b)
	putBuf(out)
}

func handleCoreFetch(w http.ResponseWriter, r *http.Request, c Core) {
	id, err := intQueryFast(r, "worker_id")
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
		out := getBuf()
		b := appendAssignment(*out, a)
		*out = b
		writeRaw(w, http.StatusOK, b)
		putBuf(out)
	}
}

// appendAssignment encodes the assignment payload.
func appendAssignment(b []byte, a Assignment) []byte {
	b = append(b, `{"task_id":`...)
	b = strconv.AppendInt(b, int64(a.TaskID), 10)
	b = append(b, `,"records":[`...)
	for i, rec := range a.Records {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, rec)
	}
	b = append(b, `],"classes":`...)
	b = strconv.AppendInt(b, int64(a.Classes), 10)
	return append(b, '}', '\n')
}

func handleCoreSubmit(w http.ResponseWriter, r *http.Request, c Core) {
	bp, err := readBody(r)
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, fmt.Errorf("decoding answer: %w", err))
		return
	}
	workerID, taskID, labels, err := decodeSubmitBody(*bp)
	putBuf(bp)
	if err != nil {
		writeCoreErr(w, http.StatusBadRequest, fmt.Errorf("decoding answer: %w", err))
		return
	}
	reply, cerr := c.CoreSubmit(workerID, taskID, labels)
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
	id, err := intQueryFast(r, "task_id")
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

// --- strict request decoding ---
//
// The historical int-field decoder unmarshalled into a map[string]int: one
// map allocation per request, and duplicate keys silently last-wins. The
// decoders below scan the raw bytes: no intermediate containers, duplicate
// occurrences of the wanted field rejected, unknown fields skipped whatever
// their type (matching the old decoder's tolerance).

var (
	errBadJSON   = errors.New("malformed JSON body")
	errNotInt    = errors.New("not an integer")
	errNotNumber = errors.New("not a number")
	errNotArray  = errors.New("not an array")
)

type jsonCursor struct {
	b []byte
	i int
}

func (c *jsonCursor) ws() {
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case ' ', '\t', '\n', '\r':
			c.i++
		default:
			return
		}
	}
}

func (c *jsonCursor) expect(ch byte) bool {
	c.ws()
	if c.i < len(c.b) && c.b[c.i] == ch {
		c.i++
		return true
	}
	return false
}

func (c *jsonCursor) peek() (byte, bool) {
	c.ws()
	if c.i < len(c.b) {
		return c.b[c.i], true
	}
	return 0, false
}

// null consumes the literal null if it is the next token. encoding/json
// treated null as "leave the zero value" everywhere, and the decoders
// preserve that on the compatibility surface (JS-style clients serialize
// absent fields as null).
func (c *jsonCursor) null() bool {
	c.ws()
	if len(c.b)-c.i < 4 || string(c.b[c.i:c.i+4]) != "null" {
		return false
	}
	if c.i+4 < len(c.b) {
		switch c.b[c.i+4] {
		case ',', '}', ']', ' ', '\t', '\n', '\r':
		default:
			return false
		}
	}
	c.i += 4
	return true
}

// str parses a JSON string literal, returning its decoded value. unescape
// is skipped for the common escape-free case (the returned string then
// aliases c.b — callers copy if they retain it; decodeStringField and
// decodeTaskSpecs convert to string, which copies).
func (c *jsonCursor) str() (string, error) {
	if !c.expect('"') {
		return "", errBadJSON
	}
	start := c.i
	esc := false
	for c.i < len(c.b) {
		ch := c.b[c.i]
		if ch == '\\' {
			esc = true
			c.i += 2
			continue
		}
		if ch == '"' {
			raw := c.b[start:c.i]
			c.i++
			if !esc {
				return string(raw), nil
			}
			return unescapeJSON(raw)
		}
		c.i++
	}
	return "", errBadJSON
}

func unescapeJSON(raw []byte) (string, error) {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		ch := raw[i]
		if ch != '\\' {
			out = append(out, ch)
			i++
			continue
		}
		if i+1 >= len(raw) {
			return "", errBadJSON
		}
		switch raw[i+1] {
		case '"', '\\', '/':
			out = append(out, raw[i+1])
			i += 2
		case 'n':
			out = append(out, '\n')
			i += 2
		case 't':
			out = append(out, '\t')
			i += 2
		case 'r':
			out = append(out, '\r')
			i += 2
		case 'b':
			out = append(out, '\b')
			i += 2
		case 'f':
			out = append(out, '\f')
			i += 2
		case 'u':
			if i+6 > len(raw) {
				return "", errBadJSON
			}
			v, err := strconv.ParseUint(string(raw[i+2:i+6]), 16, 32)
			if err != nil {
				return "", errBadJSON
			}
			r := rune(v)
			i += 6
			if utf16IsHighSurrogate(r) && i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
				if v2, err := strconv.ParseUint(string(raw[i+2:i+6]), 16, 32); err == nil && utf16IsLowSurrogate(rune(v2)) {
					r = 0x10000 + (r-0xD800)<<10 + (rune(v2) - 0xDC00)
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		default:
			return "", errBadJSON
		}
	}
	return string(out), nil
}

// valueStr parses a string at a value position (null = "").
func (c *jsonCursor) valueStr() (string, error) {
	if c.null() {
		return "", nil
	}
	return c.str()
}

func utf16IsHighSurrogate(r rune) bool { return r >= 0xD800 && r < 0xDC00 }
func utf16IsLowSurrogate(r rune) bool  { return r >= 0xDC00 && r < 0xE000 }

// integer parses a JSON number that must be an integer (null = 0).
func (c *jsonCursor) integer() (int, error) {
	if c.null() {
		return 0, nil
	}
	c.ws()
	start := c.i
	if c.i < len(c.b) && (c.b[c.i] == '-' || c.b[c.i] == '+') {
		c.i++
	}
	for c.i < len(c.b) {
		ch := c.b[c.i]
		if ch >= '0' && ch <= '9' {
			c.i++
			continue
		}
		if ch == '.' || ch == 'e' || ch == 'E' {
			return 0, errNotInt
		}
		break
	}
	v, err := strconv.Atoi(string(c.b[start:c.i]))
	if err != nil {
		return 0, errNotInt
	}
	return v, nil
}

// number parses a JSON number as float64 (null = 0). Parsing goes through
// strconv.ParseFloat, so the shortest-representation values the encoder
// emits round-trip to the identical bit pattern — the hybrid plane's
// replay determinism depends on that.
func (c *jsonCursor) number() (float64, error) {
	if c.null() {
		return 0, nil
	}
	c.ws()
	start := c.i
	for c.i < len(c.b) {
		switch ch := c.b[c.i]; {
		case ch >= '0' && ch <= '9',
			ch == '-', ch == '+', ch == '.', ch == 'e', ch == 'E':
			c.i++
		default:
			goto parsed
		}
	}
parsed:
	v, err := strconv.ParseFloat(string(c.b[start:c.i]), 64)
	if err != nil {
		return 0, errNotNumber
	}
	return v, nil
}

// floatArray parses a JSON array of numbers (null = nil, null element = 0).
func (c *jsonCursor) floatArray() ([]float64, error) {
	if c.null() {
		return nil, nil
	}
	ch, ok := c.peek()
	if !ok || ch != '[' {
		return nil, errNotArray
	}
	c.i++
	if c.expect(']') {
		return []float64{}, nil
	}
	var out []float64
	for {
		v, err := c.number()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if c.expect(',') {
			continue
		}
		if c.expect(']') {
			return out, nil
		}
		return nil, errBadJSON
	}
}

// floatMatrix parses a JSON array of number arrays (null = nil).
func (c *jsonCursor) floatMatrix() ([][]float64, error) {
	if c.null() {
		return nil, nil
	}
	ch, ok := c.peek()
	if !ok || ch != '[' {
		return nil, errNotArray
	}
	c.i++
	if c.expect(']') {
		return [][]float64{}, nil
	}
	var out [][]float64
	for {
		row, err := c.floatArray()
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		if c.expect(',') {
			continue
		}
		if c.expect(']') {
			return out, nil
		}
		return nil, errBadJSON
	}
}

// skipValue advances past one JSON value of any type.
func (c *jsonCursor) skipValue() error {
	ch, ok := c.peek()
	if !ok {
		return errBadJSON
	}
	switch ch {
	case '"':
		_, err := c.str()
		return err
	case '{':
		return c.skipContainer('{', '}')
	case '[':
		return c.skipContainer('[', ']')
	default:
		start := c.i
		for c.i < len(c.b) {
			switch c.b[c.i] {
			case ',', '}', ']', ' ', '\t', '\n', '\r':
				if c.i == start {
					return errBadJSON
				}
				return nil
			}
			c.i++
		}
		if c.i == start {
			return errBadJSON
		}
		return nil
	}
}

func (c *jsonCursor) skipContainer(open, close byte) error {
	if !c.expect(open) {
		return errBadJSON
	}
	depth := 1
	for c.i < len(c.b) {
		switch c.b[c.i] {
		case '"':
			if _, err := c.str(); err != nil {
				return err
			}
			continue
		case open:
			depth++
		case close:
			depth--
			if depth == 0 {
				c.i++
				return nil
			}
		}
		c.i++
	}
	return errBadJSON
}

// object iterates the members of a JSON object, calling fn with each key.
// fn must consume the member's value (or return an error). A literal null
// where the object is expected reads as an object with no members.
func (c *jsonCursor) object(fn func(key string) error) error {
	if c.null() {
		return nil
	}
	if !c.expect('{') {
		return errBadJSON
	}
	if c.expect('}') {
		return nil
	}
	for {
		key, err := c.str()
		if err != nil {
			return err
		}
		if !c.expect(':') {
			return errBadJSON
		}
		if err := fn(key); err != nil {
			return err
		}
		if c.expect(',') {
			continue
		}
		if c.expect('}') {
			return nil
		}
		return errBadJSON
	}
}

// decodeIntField extracts one required integer field from a JSON object
// body. Unknown fields are skipped; a duplicate occurrence of the wanted
// field is rejected instead of silently last-wins.
func decodeIntField(body []byte, field string) (int, error) {
	c := jsonCursor{b: body}
	val, seen := 0, false
	err := c.object(func(key string) error {
		if key != field {
			return c.skipValue()
		}
		if seen {
			return fmt.Errorf("duplicate field %q", field)
		}
		seen = true
		v, err := c.integer()
		if err != nil {
			return fmt.Errorf("field %q: %w", field, err)
		}
		val = v
		return nil
	})
	if err != nil {
		return 0, err
	}
	if !seen {
		return 0, fmt.Errorf("missing field %q", field)
	}
	return val, nil
}

// decodeStringField extracts one string field from a JSON object body (""
// when absent, mirroring the historical struct decode).
func decodeStringField(body []byte, field string) (string, error) {
	c := jsonCursor{b: body}
	val, seen := "", false
	err := c.object(func(key string) error {
		if key != field {
			return c.skipValue()
		}
		if seen {
			return fmt.Errorf("duplicate field %q", field)
		}
		seen = true
		v, err := c.valueStr()
		if err != nil {
			return fmt.Errorf("field %q: %w", field, err)
		}
		val = v
		return nil
	})
	if err != nil {
		return "", err
	}
	return val, nil
}

// intArray parses a JSON array of integers (null = nil, null element = 0).
func (c *jsonCursor) intArray() ([]int, error) {
	if c.null() {
		return nil, nil
	}
	ch, ok := c.peek()
	if !ok || ch != '[' {
		return nil, errNotArray
	}
	c.i++
	if c.expect(']') {
		return []int{}, nil
	}
	var out []int
	for {
		v, err := c.integer()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if c.expect(',') {
			continue
		}
		if c.expect(']') {
			return out, nil
		}
		return nil, errBadJSON
	}
}

// decodeSubmitBody strictly decodes {"worker_id":N,"task_id":N,"labels":[..]}.
func decodeSubmitBody(body []byte) (workerID, taskID int, labels []int, err error) {
	c := jsonCursor{b: body}
	var seenW, seenT, seenL bool
	err = c.object(func(key string) error {
		switch key {
		case "worker_id":
			if seenW {
				return errors.New(`duplicate field "worker_id"`)
			}
			seenW = true
			v, err := c.integer()
			if err != nil {
				return fmt.Errorf(`field "worker_id": %w`, err)
			}
			workerID = v
			return nil
		case "task_id":
			if seenT {
				return errors.New(`duplicate field "task_id"`)
			}
			seenT = true
			v, err := c.integer()
			if err != nil {
				return fmt.Errorf(`field "task_id": %w`, err)
			}
			taskID = v
			return nil
		case "labels":
			if seenL {
				return errors.New(`duplicate field "labels"`)
			}
			seenL = true
			v, err := c.intArray()
			if err != nil {
				return fmt.Errorf(`field "labels": %w`, err)
			}
			labels = v
			return nil
		default:
			return c.skipValue()
		}
	})
	if err != nil {
		return 0, 0, nil, err
	}
	return workerID, taskID, labels, nil
}

// stringArray parses a JSON array of strings (null = nil, null element = "").
func (c *jsonCursor) stringArray() ([]string, error) {
	if c.null() {
		return nil, nil
	}
	ch, ok := c.peek()
	if !ok || ch != '[' {
		return nil, errNotArray
	}
	c.i++
	if c.expect(']') {
		return []string{}, nil
	}
	var out []string
	for {
		v, err := c.valueStr()
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		if c.expect(',') {
			continue
		}
		if c.expect(']') {
			return out, nil
		}
		return nil, errBadJSON
	}
}

// decodeTaskSpecs strictly decodes {"tasks":[{records, classes, quorum,
// priority, features}, ...]}.
func decodeTaskSpecs(body []byte) ([]TaskSpec, error) {
	c := jsonCursor{b: body}
	var specs []TaskSpec
	seenTasks := false
	err := c.object(func(key string) error {
		if key != "tasks" {
			return c.skipValue()
		}
		if seenTasks {
			return errors.New(`duplicate field "tasks"`)
		}
		seenTasks = true
		if c.null() {
			return nil
		}
		ch, ok := c.peek()
		if !ok || ch != '[' {
			return fmt.Errorf(`field "tasks": %w`, errNotArray)
		}
		c.i++
		if c.expect(']') {
			return nil
		}
		for {
			var spec TaskSpec
			err := c.object(func(fkey string) error {
				switch fkey {
				case "records":
					recs, err := c.stringArray()
					if err != nil {
						return fmt.Errorf(`field "records": %w`, err)
					}
					spec.Records = recs
					return nil
				case "classes":
					v, err := c.integer()
					if err != nil {
						return fmt.Errorf(`field "classes": %w`, err)
					}
					spec.Classes = v
					return nil
				case "quorum":
					v, err := c.integer()
					if err != nil {
						return fmt.Errorf(`field "quorum": %w`, err)
					}
					spec.Quorum = v
					return nil
				case "priority":
					v, err := c.integer()
					if err != nil {
						return fmt.Errorf(`field "priority": %w`, err)
					}
					spec.Priority = v
					return nil
				case "features":
					m, err := c.floatMatrix()
					if err != nil {
						return fmt.Errorf(`field "features": %w`, err)
					}
					spec.Features = m
					return nil
				default:
					return c.skipValue()
				}
			})
			if err != nil {
				return err
			}
			specs = append(specs, spec)
			if c.expect(',') {
				continue
			}
			if c.expect(']') {
				return nil
			}
			return errBadJSON
		}
	})
	if err != nil {
		return nil, err
	}
	return specs, nil
}
