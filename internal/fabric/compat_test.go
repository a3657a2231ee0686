package fabric

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/clamshell/clamshell/internal/server"
)

var update = flag.Bool("update", false, "rewrite golden files")

// A 1-shard fabric must keep speaking byte-for-byte the protocol of the
// historical single-mutex server: same status codes, same bodies, same
// error strings, same snapshot wire format. The golden transcript in
// testdata/compat_v1.golden.json was recorded from that server; this test
// drives the identical scripted conversation — covering every endpoint,
// the straggler termination race, submit replays and snapshot/restore —
// through a 1-shard fabric under a fake clock and diffs every response
// against it.

type compatStep struct {
	name    string
	method  string
	path    string
	body    string
	advance time.Duration // clock advance before the request
}

// compatResponse is one recorded response.
type compatResponse struct {
	Name        string `json:"name"`
	Status      int    `json:"status"`
	ContentType string `json:"content_type"`
	Body        string `json:"body"`
}

// compatTranscript is the whole recorded conversation: every scripted
// step, then a restore of the "snapshot" step's body and the views that
// must come back from it.
type compatTranscript struct {
	Steps    []compatResponse `json:"steps"`
	Restored []compatResponse `json:"restored"`
}

var compatSteps = []compatStep{
	{name: "healthz", method: "GET", path: "/api/healthz"},
	{name: "ui", method: "GET", path: "/"},
	{name: "status empty", method: "GET", path: "/api/status"},
	{name: "join alice", method: "POST", path: "/api/join", body: `{"name":"alice"}`},
	{name: "join bob", method: "POST", path: "/api/join", body: `{"name":"bob"}`},
	{name: "join carol", method: "POST", path: "/api/join", body: `{"name":"carol"}`},
	{name: "join bad body", method: "POST", path: "/api/join", body: `{`},
	{name: "heartbeat", method: "POST", path: "/api/heartbeat", body: `{"worker_id":1}`},
	{name: "heartbeat unknown", method: "POST", path: "/api/heartbeat", body: `{"worker_id":99}`},
	{name: "heartbeat missing field", method: "POST", path: "/api/heartbeat", body: `{"nope":1}`},
	{name: "fetch no tasks", method: "GET", path: "/api/task?worker_id=1"},
	{name: "fetch bad query", method: "GET", path: "/api/task"},
	{name: "fetch trailing garbage", method: "GET", path: "/api/task?worker_id=1abc"},
	{name: "tasks empty batch", method: "POST", path: "/api/tasks", body: `{"tasks":[]}`},
	{name: "tasks no records", method: "POST", path: "/api/tasks", body: `{"tasks":[{"records":[]}]}`},
	{name: "tasks bad body", method: "POST", path: "/api/tasks", body: `}`},
	{name: "submit batch", method: "POST", path: "/api/tasks",
		body: `{"tasks":[{"records":["r1a","r1b"],"classes":2,"quorum":1},{"records":["r2a"],"classes":3,"quorum":2,"priority":5},{"records":["r3a"],"classes":2,"quorum":1}]}`},
	{name: "result unassigned", method: "GET", path: "/api/result?task_id=1"},
	{name: "result unknown", method: "GET", path: "/api/result?task_id=77"},
	{name: "result trailing garbage", method: "GET", path: "/api/result?task_id=1x"},
	// Priority 5 task (id 2) is handed out first.
	{name: "fetch alice priority", method: "GET", path: "/api/task?worker_id=1", advance: time.Second},
	{name: "fetch alice redeliver", method: "GET", path: "/api/task?worker_id=1"},
	// Quorum 2: bob gets the same task as a primary answer slot.
	{name: "fetch bob quorum", method: "GET", path: "/api/task?worker_id=2"},
	{name: "fetch carol fifo", method: "GET", path: "/api/task?worker_id=3"},
	{name: "submit alice", method: "POST", path: "/api/submit", advance: time.Second,
		body: `{"worker_id":1,"task_id":2,"labels":[2]}`},
	// A client retry after a lost response: re-acknowledged, nothing
	// recounted (the costs and status steps below pin that).
	{name: "submit alice replay", method: "POST", path: "/api/submit",
		body: `{"worker_id":1,"task_id":2,"labels":[2]}`},
	{name: "submit bad label count", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":2,"labels":[1,1]}`},
	{name: "submit label out of range", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":2,"labels":[3]}`},
	{name: "submit unknown task", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":66,"labels":[0]}`},
	{name: "submit unknown worker", method: "POST", path: "/api/submit",
		body: `{"worker_id":55,"task_id":2,"labels":[0]}`},
	{name: "submit bob", method: "POST", path: "/api/submit", advance: time.Second,
		body: `{"worker_id":2,"task_id":2,"labels":[2]}`},
	{name: "result complete", method: "GET", path: "/api/result?task_id=2"},
	// The step names predate the transcript and say less than happens:
	// alice is handed task 3, and carol (who holds task 1) answers task 3;
	// bob gets a speculative duplicate of task 1, alice answers task 1 first
	// (neither was handed to her), and bob's late answer is a paid
	// termination.
	{name: "fetch alice task1", method: "GET", path: "/api/task?worker_id=1"},
	{name: "submit carol", method: "POST", path: "/api/submit", advance: time.Second,
		body: `{"worker_id":3,"task_id":3,"labels":[1]}`},
	{name: "fetch bob speculative", method: "GET", path: "/api/task?worker_id=2"},
	{name: "submit alice task1", method: "POST", path: "/api/submit", advance: time.Second,
		body: `{"worker_id":1,"task_id":1,"labels":[0,1]}`},
	{name: "submit bob terminated", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":1,"labels":[1,1]}`},
	{name: "submit bob terminated replay", method: "POST", path: "/api/submit",
		body: `{"worker_id":2,"task_id":1,"labels":[1,1]}`},
	{name: "status mid", method: "GET", path: "/api/status"},
	{name: "workers mid", method: "GET", path: "/api/workers"},
	{name: "costs mid", method: "GET", path: "/api/costs", advance: 30 * time.Second},
	{name: "consensus majority", method: "GET", path: "/api/consensus"},
	{name: "consensus em", method: "GET", path: "/api/consensus?estimator=em"},
	{name: "consensus bad", method: "GET", path: "/api/consensus?estimator=wat"},
	// KOS needs binary tasks; task 2 has 3 classes.
	{name: "consensus kos rejected", method: "GET", path: "/api/consensus?estimator=kos"},
	{name: "metricsz", method: "GET", path: "/api/metricsz"},
	// Meant to retire carol through maintenance, but she still holds task 1
	// (handed out at "fetch carol fifo"): each fetch re-delivers it and her
	// answers land on tasks 4-6, which she was never handed, so nobody is
	// retired. The transcript pins that behaviour as recorded.
	{name: "retire tasks", method: "POST", path: "/api/tasks",
		body: `{"tasks":[{"records":["s1"],"quorum":1},{"records":["s2"],"quorum":1},{"records":["s3"],"quorum":1}]}`},
	{name: "retire fetch 1", method: "GET", path: "/api/task?worker_id=3"},
	{name: "retire submit 1", method: "POST", path: "/api/submit", advance: 30 * time.Second,
		body: `{"worker_id":3,"task_id":4,"labels":[0]}`},
	{name: "retire fetch 2", method: "GET", path: "/api/task?worker_id=3"},
	{name: "retire submit 2", method: "POST", path: "/api/submit", advance: 30 * time.Second,
		body: `{"worker_id":3,"task_id":5,"labels":[0]}`},
	{name: "retire fetch 3", method: "GET", path: "/api/task?worker_id=3"},
	{name: "retire submit 3", method: "POST", path: "/api/submit", advance: 30 * time.Second,
		body: `{"worker_id":3,"task_id":6,"labels":[0]}`},
	{name: "fetch retired gone", method: "GET", path: "/api/task?worker_id=3"},
	{name: "status retired", method: "GET", path: "/api/status"},
	{name: "snapshot", method: "GET", path: "/api/snapshot"},
	{name: "leave bob", method: "POST", path: "/api/leave", body: `{"worker_id":2}`},
	{name: "leave unknown ok", method: "POST", path: "/api/leave", body: `{"worker_id":42}`},
	{name: "workers after leave", method: "GET", path: "/api/workers"},
	{name: "restore bad body", method: "POST", path: "/api/restore", body: `nope`},
	{name: "restore bad version", method: "POST", path: "/api/restore", body: `{"version":9}`},
}

// compatRestoredViews are read back after restoring the recorded snapshot.
var compatRestoredViews = []string{"/api/status", "/api/consensus", "/api/result?task_id=1", "/api/costs"}

// compatConfig is the recorded conversation's server configuration; the
// clock reads *now, which the script advances.
func compatConfig(now *time.Time) server.Config {
	return server.Config{
		SpeculationLimit:     1,
		WorkerTimeout:        10 * time.Minute,
		MaintenanceThreshold: 2 * time.Second,
		Now:                  func() time.Time { return *now },
	}
}

func compatDo(h http.Handler, name, method, path, body string) compatResponse {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return compatResponse{
		Name:        name,
		Status:      rec.Code,
		ContentType: rec.Header().Get("Content-Type"),
		Body:        rec.Body.String(),
	}
}

// playCompat drives the scripted conversation through h, then restores the
// snapshot it served and reads the restored views back.
func playCompat(h http.Handler, now *time.Time) compatTranscript {
	var tr compatTranscript
	var snapshot string
	for _, st := range compatSteps {
		*now = now.Add(st.advance)
		resp := compatDo(h, st.name, st.method, st.path, st.body)
		if st.name == "snapshot" {
			snapshot = resp.Body
		}
		tr.Steps = append(tr.Steps, resp)
	}
	tr.Restored = append(tr.Restored, compatDo(h, "restore snapshot", "POST", "/api/restore", snapshot))
	for _, path := range compatRestoredViews {
		tr.Restored = append(tr.Restored, compatDo(h, path, "GET", path, ""))
	}
	return tr
}

func TestFabricSingleShardByteCompat(t *testing.T) {
	path := filepath.Join("testdata", "compat_v1.golden.json")
	now := time.Unix(1_700_000_000, 0)
	got := playCompat(New(compatConfig(&now), 1), &now)
	if *update {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false) // keep the recorded HTML and bodies readable
		enc.SetIndent("", "  ")
		if err := enc.Encode(got); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want compatTranscript
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	check := func(section string, got, want []compatResponse) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d responses, golden has %d", section, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Name != w.Name {
				t.Fatalf("%s[%d]: step %q, golden has %q (script and golden out of sync; rerun with -update)",
					section, i, g.Name, w.Name)
			}
			if g.Status != w.Status {
				t.Fatalf("%s: status %d, golden %d", g.Name, g.Status, w.Status)
			}
			if g.ContentType != w.ContentType {
				t.Fatalf("%s: content-type %q, golden %q", g.Name, g.ContentType, w.ContentType)
			}
			if g.Body != w.Body {
				t.Fatalf("%s: body diverged\n   got: %q\ngolden: %q", g.Name, g.Body, w.Body)
			}
		}
	}
	check("steps", got.Steps, want.Steps)
	check("restored", got.Restored, want.Restored)
}

// The fabric's 410 for retired workers and 204 for empty queues must
// survive a restore (workers drop, queue state stays).
func TestFabricRestoreDropsWorkers(t *testing.T) {
	fab := New(server.Config{WorkerTimeout: time.Hour}, 4)
	ts := httptest.NewServer(fab)
	defer ts.Close()
	cl := server.NewClient(ts.URL)

	id, err := cl.Join("w")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.SubmitTasks([]server.TaskSpec{{Records: []string{"a"}, Quorum: 1}}); err != nil {
		t.Fatal(err)
	}
	snap, err := cl.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cl.FetchTask(id); err == nil {
		t.Fatal("fetch after restore should fail: workers are dropped")
	}
	id2, err := cl.Join("w2")
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("restored fabric reissued worker id %d", id)
	}
	a, ok, err := cl.FetchTask(id2)
	if err != nil || !ok {
		t.Fatalf("restored task not routable: ok=%v err=%v", ok, err)
	}
	if len(a.Records) != 1 || a.Records[0] != "a" {
		t.Fatalf("restored task payload %+v", a)
	}
}
