package server

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// hotShard returns a shard serving the hot endpoints through
// RegisterCoreRoutes, with worker 1 joined and holding task 1 (two
// records, two classes, quorum 1).
func hotShard(t testing.TB) (*Shard, *http.ServeMux) {
	t.Helper()
	sh := NewShard(Config{Now: func() time.Time { return time.Unix(1, 0) }}, 0, 1)
	mux := http.NewServeMux()
	RegisterCoreRoutes(mux, sh)
	if id := sh.CoreJoin("w"); id != 1 {
		t.Fatalf("first worker id = %d", id)
	}
	if _, err := sh.CoreEnqueue([]TaskSpec{{Records: []string{"a", "b"}, Classes: 2, Quorum: 1}}); err != nil {
		t.Fatal(err)
	}
	if a, disp := sh.CoreFetch(1); disp != FetchAssigned || a.TaskID != 1 {
		t.Fatalf("fetch = %+v, %v", a, disp)
	}
	return sh, mux
}

func post(mux *http.ServeMux, path string, body io.Reader) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, body))
	return rec
}

// spaces is a reader of n JSON whitespace bytes, so an oversized body
// costs the test no buffer of its own.
type spaces int

func (s *spaces) Read(p []byte) (int, error) {
	if *s == 0 {
		return 0, io.EOF
	}
	n := min(len(p), int(*s))
	for i := range p[:n] {
		p[i] = ' '
	}
	*s -= spaces(n)
	return n, nil
}

// The hot POST endpoints decode RFC 8259 JSON with encoding/json: null
// reads as the zero value, a repeated key takes the last value, anything
// that is not JSON is a 400 with the protocol's "malformed JSON body"
// error, and bodies past 16 MiB are refused with 413.
func TestHotEndpointBodies(t *testing.T) {
	const (
		malformed = "{\"error\":\"decoding body: malformed JSON body\"}\n"
		missingID = "{\"error\":\"decoding body: missing field \\\"worker_id\\\"\"}\n"
		ok        = "{\"ok\":true}\n"
		accepted  = "{\"accepted\":true,\"terminated\":false}\n"
		noTasks   = "{\"error\":\"no tasks given\"}\n"
	)
	consensus := func(want []int) func(*testing.T, *Shard) {
		return func(t *testing.T, sh *Shard) {
			if st, _ := sh.CoreResult(1); !reflect.DeepEqual(st.Consensus, want) {
				t.Errorf("task 1 consensus = %v, want %v", st.Consensus, want)
			}
		}
	}
	lastSpec := func(want TaskSpec) func(*testing.T, *Shard) {
		return func(t *testing.T, sh *Shard) {
			tasks := sh.ExportState().Tasks
			if got := tasks[len(tasks)-1].Spec; !reflect.DeepEqual(got, want) {
				t.Errorf("enqueued spec = %+v, want %+v", got, want)
			}
		}
	}
	// Features travel as shortest-form JSON numbers, and every float64 must
	// come back bit for bit: the hybrid plane's replay determinism depends
	// on the enqueued vectors being exactly the client's.
	vec := []float64{
		0, math.Copysign(0, -1), 0.1, 0.30000000000000004, 1.0 / 3, -2.5e21, 1e21, 1e-7,
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
		2.2250738585072014e-308, 123456789.123456789, math.Pi, -math.E,
	}
	for i := uint64(1); i < 64; i++ {
		vec = append(vec, math.Float64frombits(0x3ff0000000000000^i*0x9e3779b97f4a7c15>>12))
	}
	features, err := json.Marshal(map[string][]TaskSpec{"tasks": {{Records: []string{"x"}, Features: [][]float64{vec}}}})
	if err != nil {
		t.Fatal(err)
	}
	sameBits := func(t *testing.T, sh *Shard) {
		tasks := sh.ExportState().Tasks
		got := tasks[len(tasks)-1].Spec.Features
		if len(got) != 1 || len(got[0]) != len(vec) {
			t.Fatalf("features = %v", got)
		}
		for i, v := range vec {
			if math.Float64bits(got[0][i]) != math.Float64bits(v) {
				t.Errorf("feature %d: sent %v (%#x), stored %v (%#x)", i, v, math.Float64bits(v), got[0][i], math.Float64bits(got[0][i]))
			}
		}
	}

	for _, tc := range []struct {
		name, path, body string
		pad              int // JSON whitespace appended to body
		status           int
		resp             string // exact response body; "" skips the check
		check            func(*testing.T, *Shard)
	}{
		// Null tolerance.
		{name: "join null body", path: "/api/join", body: `null`, status: 200, resp: "{\"worker_id\":2}\n"},
		{name: "join null name", path: "/api/join", body: `{"name":null}`, status: 200, resp: "{\"worker_id\":2}\n"},
		{name: "tasks null body", path: "/api/tasks", body: `null`, status: 400, resp: noTasks},
		{name: "tasks null", path: "/api/tasks", body: `{"tasks":null}`, status: 400, resp: noTasks},
		{name: "tasks null task", path: "/api/tasks", body: `{"tasks":[null]}`, status: 400, resp: "{\"error\":\"task with no records\"}\n"},
		{name: "tasks null fields", path: "/api/tasks",
			body:   `{"tasks":[{"records":["x",null],"classes":null,"quorum":null,"priority":null,"features":null}]}`,
			status: 200, resp: "{\"task_ids\":[2]}\n", check: lastSpec(TaskSpec{Records: []string{"x", ""}, Classes: 2, Quorum: 1})},
		{name: "submit null label", path: "/api/submit", body: `{"worker_id":1,"task_id":1,"labels":[null,1]}`,
			status: 200, resp: accepted, check: consensus([]int{0, 1})},
		{name: "submit null fields", path: "/api/submit", body: `{"worker_id":null,"task_id":null,"labels":null}`,
			status: 404, resp: "{\"error\":\"unknown worker\"}\n"},

		// worker_id must be present (null counts as absent).
		{name: "heartbeat null body", path: "/api/heartbeat", body: `null`, status: 400, resp: missingID},
		{name: "heartbeat missing", path: "/api/heartbeat", body: `{"nope":1}`, status: 400, resp: missingID},
		{name: "heartbeat null id", path: "/api/heartbeat", body: `{"worker_id":null}`, status: 400, resp: missingID},
		{name: "leave missing", path: "/api/leave", body: `{}`, status: 400, resp: missingID},
		{name: "heartbeat", path: "/api/heartbeat", body: `{"worker_id":1}`, status: 200, resp: ok},

		// Not JSON.
		{name: "trailing bytes", path: "/api/heartbeat", body: `{"worker_id":1}garbage`, status: 400, resp: malformed},
		{name: "leading plus", path: "/api/heartbeat", body: `{"worker_id":+1}`, status: 400, resp: malformed},
		{name: "leading zero", path: "/api/leave", body: `{"worker_id":01}`, status: 400, resp: malformed},
		{name: "bad skipped value", path: "/api/heartbeat", body: `{"x":[nonsense !!],"worker_id":1}`, status: 400, resp: malformed},
		{name: "raw control char", path: "/api/join", body: "{\"name\":\"a\x01b\"}", status: 400,
			resp: "{\"error\":\"decoding join request: malformed JSON body\"}\n"},
		{name: "truncated submit", path: "/api/submit", body: `{"worker_id":1,`, status: 400,
			resp: "{\"error\":\"decoding answer: malformed JSON body\"}\n"},
		{name: "empty tasks body", path: "/api/tasks", body: ``, status: 400,
			resp: "{\"error\":\"decoding tasks: malformed JSON body\"}\n"},
		{name: "float id", path: "/api/heartbeat", body: `{"worker_id":1.5}`, status: 400},
		{name: "string labels", path: "/api/submit", body: `{"worker_id":1,"task_id":1,"labels":"01"}`, status: 400},

		// A repeated key takes the last value.
		{name: "duplicate id last wins", path: "/api/heartbeat", body: `{"worker_id":99,"worker_id":1}`, status: 200, resp: ok},
		{name: "duplicate id last loses", path: "/api/heartbeat", body: `{"worker_id":1,"worker_id":99}`,
			status: 404, resp: "{\"error\":\"unknown worker\"}\n"},
		{name: "duplicate labels", path: "/api/submit", body: `{"worker_id":1,"task_id":1,"labels":[7,7],"labels":[1,0]}`,
			status: 200, resp: accepted, check: consensus([]int{1, 0})},

		{name: "features round trip", path: "/api/tasks", body: string(features), status: 200, check: sameBits},

		// Invalid UTF-8 is decoded as U+FFFD.
		{name: "invalid utf8 name", path: "/api/join", body: "{\"name\":\"a\xffb\"}", status: 200,
			check: func(t *testing.T, sh *Shard) {
				names := map[int]string{}
				for _, w := range sh.WorkerList() {
					names[w.ID] = w.Name
				}
				if names[2] != "a\uFFFDb" {
					t.Errorf("joined name = %q", names[2])
				}
			}},

		// The 16 MiB body cap.
		{name: "body at cap", path: "/api/heartbeat", body: `{"worker_id":1}`, pad: maxBody - len(`{"worker_id":1}`), status: 200, resp: ok},
		{name: "body over cap", path: "/api/heartbeat", body: `{"worker_id":1}`, pad: maxBody - len(`{"worker_id":1}`) + 1,
			status: 413, resp: "{\"error\":\"decoding body: request body exceeds 16 MiB\"}\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sh, mux := hotShard(t)
			pad := spaces(tc.pad)
			rec := post(mux, tc.path, io.MultiReader(strings.NewReader(tc.body), &pad))
			if rec.Code != tc.status || (tc.resp != "" && rec.Body.String() != tc.resp) {
				t.Fatalf("%s %q: %d %q, want %d %q", tc.path, tc.body, rec.Code, rec.Body, tc.status, tc.resp)
			}
			if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			if tc.check != nil {
				tc.check(t, sh)
			}
		})
	}
}

// FuzzHTTPBodies: whatever bytes arrive as a hot POST body, the server
// must not panic or answer 5xx, and must answer 400 to anything that is
// not JSON.
func FuzzHTTPBodies(f *testing.F) {
	paths := []string{"/api/join", "/api/heartbeat", "/api/leave", "/api/tasks", "/api/submit"}
	for i, body := range []string{
		`{"name":"alice"}`, `{"worker_id":1}`, `{"worker_id":2}`,
		`{"tasks":[{"records":["a","b"],"classes":2,"quorum":1,"features":[[0.5],[1e-3]]}]}`,
		`{"worker_id":1,"task_id":1,"labels":[0,1]}`, `null`, `{"worker_id":1}garbage`, `{"x":[nonsense !!]}`,
	} {
		f.Add(uint8(i), []byte(body))
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		_, mux := hotShard(t)
		path := paths[int(which)%len(paths)]
		rec := post(mux, path, strings.NewReader(string(body)))
		if rec.Code >= 500 {
			t.Fatalf("%s %q: %d %s", path, body, rec.Code, rec.Body)
		}
		if !json.Valid(body) && rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %q is not JSON but got %d %s", path, body, rec.Code, rec.Body)
		}
	})
}
