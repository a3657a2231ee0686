package server

import (
	"reflect"
	"testing"
	"time"
)

// Tests for the hybrid learning plane's server-side primitives: the label
// event stream, model auto-finalization with provenance, uncertainty
// re-prioritization, and the durability of all three.

func hybridTestShard(now *time.Time) *Shard {
	return NewShard(Config{Now: func() time.Time { return *now }}, 0, 1)
}

func featSpec(prio int) TaskSpec {
	return TaskSpec{
		Records:  []string{"a", "b"},
		Classes:  2,
		Quorum:   1,
		Priority: prio,
		Features: [][]float64{{0.5, -1.25}, {2.0, 0.125}},
	}
}

func TestAutoFinalize(t *testing.T) {
	now := time.Unix(100, 0)
	s := hybridTestShard(&now)
	tid := s.Enqueue(featSpec(0))

	if s.AutoFinalize(tid, []int{0}) {
		t.Fatal("accepted labels shorter than records")
	}
	if s.AutoFinalize(tid, []int{0, 2}) {
		t.Fatal("accepted out-of-range label")
	}
	if s.AutoFinalize(tid+99, []int{0, 1}) {
		t.Fatal("accepted unknown task")
	}
	if !s.AutoFinalize(tid, []int{1, 0}) {
		t.Fatal("rejected a valid auto-finalize")
	}
	if s.AutoFinalize(tid, []int{1, 0}) {
		t.Fatal("accepted a second finalize of a done task")
	}

	st, ok := s.ResultStatus(tid)
	if !ok || st.State != "complete" {
		t.Fatalf("status = %+v, want complete", st)
	}
	if st.Source != "model" {
		t.Fatalf("Source = %q, want model", st.Source)
	}
	if !reflect.DeepEqual(st.Consensus, []int{1, 0}) {
		t.Fatalf("Consensus = %v, want the model answer", st.Consensus)
	}
	if c := s.CountersNow(); c.AutoFinalized != 1 {
		t.Fatalf("AutoFinalized = %d, want 1", c.AutoFinalized)
	}

	// A model-finalized task must not hand out work.
	w := s.Join("w")
	if _, ok := s.PickLocal(w, false); ok {
		t.Fatal("model-finalized task was handed out")
	}
}

func TestAutoFinalizeProvenanceSurvivesSnapshot(t *testing.T) {
	now := time.Unix(100, 0)
	s := hybridTestShard(&now)
	tid := s.Enqueue(featSpec(0))
	if !s.AutoFinalize(tid, []int{0, 1}) {
		t.Fatal("auto-finalize failed")
	}

	data, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s2 := hybridTestShard(&now)
	if err := s2.Restore(data); err != nil {
		t.Fatal(err)
	}
	st, ok := s2.ResultStatus(tid)
	if !ok || st.Source != "model" || !reflect.DeepEqual(st.Consensus, []int{0, 1}) {
		t.Fatalf("restored status = %+v, want model provenance and answer", st)
	}
	if c := s2.CountersNow(); c.AutoFinalized != 1 {
		t.Fatalf("restored AutoFinalized = %d, want 1", c.AutoFinalized)
	}
	// Features survive too: the restored shard can re-seed a plane.
	evs := s2.SeedLabelEvents()
	if len(evs) != 2 || evs[0].Kind != LabelEnqueued || evs[1].Kind != LabelFinalized {
		t.Fatalf("seed events = %+v, want enqueued+finalized", evs)
	}
	if !evs[1].ByModel || !reflect.DeepEqual(evs[1].Labels, []int{0, 1}) {
		t.Fatalf("finalized seed event = %+v, want model labels", evs[1])
	}
	if !reflect.DeepEqual(evs[0].Features, featSpec(0).Features) {
		t.Fatalf("seed features = %v, want original", evs[0].Features)
	}

	// Snapshot validation rejects inconsistent model provenance.
	bad, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatal(err)
	}
	bad.Tasks[0].Done = false
	if enc, err := EncodeSnapshot(bad); err == nil {
		if _, err := DecodeSnapshot(enc); err == nil {
			t.Fatal("decoded a model task that is not done")
		}
	}
}

func TestReprioritizeRebuckets(t *testing.T) {
	now := time.Unix(100, 0)
	s := hybridTestShard(&now)
	low := s.Enqueue(featSpec(0))
	high := s.Enqueue(featSpec(1))

	w := s.Join("w")
	// Priority 1 beats 0: the second task would be handed out first.
	// Re-bucket the first above it and it must win instead.
	if !s.Reprioritize(low, 5) {
		t.Fatal("re-prioritization rejected")
	}
	if s.Reprioritize(low, 5) {
		t.Fatal("accepted a no-op re-prioritization to the same priority")
	}
	if s.Reprioritize(low+99, 1) {
		t.Fatal("accepted unknown task")
	}
	a, ok := s.PickLocal(w, false)
	if !ok || a.TaskID != low {
		t.Fatalf("picked task %d, want re-prioritized %d", a.TaskID, low)
	}
	_ = high

	// Done tasks cannot move.
	if !s.AutoFinalize(high, []int{0, 0}) {
		t.Fatal("auto-finalize failed")
	}
	if s.Reprioritize(high, 3) {
		t.Fatal("re-prioritized a done task")
	}
}

func TestLabelEventStream(t *testing.T) {
	now := time.Unix(100, 0)
	s := hybridTestShard(&now)
	var evs []LabelEvent
	s.SetLabelSink(func(ev LabelEvent) { evs = append(evs, ev) })

	// Tasks without features emit nothing.
	s.Enqueue(TaskSpec{Records: []string{"x"}, Classes: 2, Quorum: 1})
	if len(evs) != 0 {
		t.Fatalf("featureless enqueue emitted %+v", evs)
	}

	tid := s.Enqueue(featSpec(2))
	if len(evs) != 1 || evs[0].Kind != LabelEnqueued || evs[0].Task != tid {
		t.Fatalf("events = %+v, want one enqueued", evs)
	}
	if evs[0].Priority != 2 || evs[0].Classes != 2 || evs[0].Records != 2 {
		t.Fatalf("enqueued event shape = %+v", evs[0])
	}

	w := s.Join("w")
	if _, ok := s.PickLocal(w, false); !ok {
		t.Fatal("no work")
	}
	if outcome, rec, err := s.AcceptAnswer(tid, w, []int{1, 1}); outcome != SubmitAccepted {
		t.Fatalf("submit: %v %d %v", outcome, rec, err)
	}
	// Quorum 1: the answer both acknowledges and finalizes.
	if len(evs) != 3 {
		t.Fatalf("events after submit = %+v, want answered+finalized", evs)
	}
	if evs[1].Kind != LabelAnswered || !reflect.DeepEqual(evs[1].Labels, []int{1, 1}) {
		t.Fatalf("answered event = %+v", evs[1])
	}
	fin := evs[2]
	if fin.Kind != LabelFinalized || fin.ByModel || !reflect.DeepEqual(fin.Labels, []int{1, 1}) {
		t.Fatalf("finalized event = %+v, want human consensus", fin)
	}
	if fin.Answers != 1 || fin.Records != 2 {
		t.Fatalf("finalized event shape = %+v", fin)
	}
	// Finalized events are self-contained: the learning plane resolves the
	// learner from the event's own shape.
	if !reflect.DeepEqual(fin.Features, featSpec(2).Features) || fin.Classes != 2 {
		t.Fatalf("finalized features = %v classes = %d", fin.Features, fin.Classes)
	}

	// Model finalization emits a ByModel finalized event.
	tid2 := s.Enqueue(featSpec(0))
	if !s.AutoFinalize(tid2, []int{0, 1}) {
		t.Fatal("auto-finalize failed")
	}
	last := evs[len(evs)-1]
	if last.Kind != LabelFinalized || !last.ByModel || last.Task != tid2 {
		t.Fatalf("model finalize event = %+v", last)
	}
}

func TestModelAnswersStayOutOfVoteGraph(t *testing.T) {
	now := time.Unix(100, 0)
	s := hybridTestShard(&now)
	tid := s.Enqueue(featSpec(0))
	if !s.AutoFinalize(tid, []int{1, 1}) {
		t.Fatal("auto-finalize failed")
	}
	stride, _, _ := s.Dims()
	if votes := s.Votes(stride); len(votes) != 0 {
		t.Fatalf("model answer leaked into the vote graph: %+v", votes)
	}
}
