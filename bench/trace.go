package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"
)

// Client-side spans of the traced pass, kept in memory and written at the
// end as Chrome/Perfetto trace-event JSON. One root span per task (due
// time → quorum-th accepted ack) parents the enqueue call that admitted
// it and every hand-out and submit made for it; probe calls get a span
// each. Spans inside the servers are a later change (ROADMAP "task-level
// tracing").

type spanKind uint8

const (
	spanTask spanKind = iota
	spanEnqueue
	spanHandout
	spanSubmit
	spanFrame
	spanProbe
)

var spanNames = [...]string{"task", "enqueue", "handout", "submit", "frame", "probe"}

type span struct {
	kind       spanKind
	driver     uint8
	worker     int32
	task       int32
	probe      uint16 // index into tracer.probeNames for spanProbe
	start, end int64  // ns on the run clock
}

// tracer collects spans. Each driver owns one (no locking); the probes
// share another from the main goroutine.
type tracer struct {
	spans      []span
	probeNames []string
	// budget is how many more driver spans this tracer keeps; the rest are
	// counted in dropped. Each traced phase gets a fresh budget, so the span
	// file covers the head of every phase at any speed instead of growing
	// to hundreds of megabytes on the fast workloads.
	budget  int
	dropped int
}

// phaseSpanBudget is a driver's span budget per traced phase.
const phaseSpanBudget = 40000

func (t *tracer) span(kind spanKind, driver, worker, task int, start, end int64) {
	if t.budget <= 0 {
		t.dropped++
		return
	}
	t.budget--
	t.spans = append(t.spans, span{kind: kind, driver: uint8(driver), worker: int32(worker), task: int32(task), start: start, end: end})
}

// probeID registers a probe name and returns its index for probeSpan.
func (t *tracer) probeID(name string) uint16 {
	t.probeNames = append(t.probeNames, name)
	return uint16(len(t.probeNames) - 1)
}

func (t *tracer) probeSpan(id uint16, start, end int64) {
	t.spans = append(t.spans, span{kind: spanProbe, probe: id, start: start, end: end})
}

// writeTrace writes every tracer's spans to path as a trace-event array.
// Task spans sit in process "tasks" on a lane per task id; client calls in
// a process per driver with a thread per logical worker; each carries its
// op, worker, task, and the id of its parent (the task's root span).
func writeTrace(path string, tracers []*tracer) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString("[\n")
	buf := make([]byte, 0, 256)
	for _, t := range tracers {
		for _, s := range t.spans {
			buf = buf[:0]
			if n > 0 {
				buf = append(buf, ",\n"...)
			}
			name := spanNames[s.kind]
			if s.kind == spanProbe {
				name = t.probeNames[s.probe]
			}
			pid, tid := int64(s.driver), int64(s.worker)
			switch s.kind {
			case spanTask:
				pid, tid = 100, int64(s.task%64)
			case spanProbe:
				pid, tid = 200, 0
			}
			buf = append(buf, `{"name":"`...)
			buf = append(buf, name...)
			buf = append(buf, `","cat":"`...)
			buf = append(buf, spanNames[s.kind]...)
			buf = append(buf, `","ph":"X","ts":`...)
			buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
			buf = append(buf, `,"dur":`...)
			buf = strconv.AppendFloat(buf, float64(s.end-s.start)/1e3, 'f', 3, 64)
			buf = append(buf, `,"pid":`...)
			buf = strconv.AppendInt(buf, pid, 10)
			buf = append(buf, `,"tid":`...)
			buf = strconv.AppendInt(buf, tid, 10)
			buf = append(buf, `,"args":{"op":"`...)
			buf = append(buf, name...)
			buf = append(buf, `","worker":`...)
			buf = strconv.AppendInt(buf, int64(s.worker), 10)
			buf = append(buf, `,"task":`...)
			buf = strconv.AppendInt(buf, int64(s.task), 10)
			switch s.kind {
			case spanTask:
				buf = append(buf, `,"id":"t`...)
				buf = strconv.AppendInt(buf, int64(s.task), 10)
				buf = append(buf, '"')
			case spanEnqueue, spanHandout, spanSubmit:
				buf = append(buf, `,"parent":"t`...)
				buf = strconv.AppendInt(buf, int64(s.task), 10)
				buf = append(buf, '"')
			}
			buf = append(buf, "}}"...)
			w.Write(buf)
			n++
		}
	}
	w.WriteString("\n]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
