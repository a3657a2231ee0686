package main

import (
	"hash/fnv"
	"math/rand"
	"strconv"
	"time"

	"github.com/clamshell/clamshell/internal/server"
)

// The traffic generator. Everything the servers receive is derived from
// the seed here: task shapes (records per task, priority), record
// contents (and through them shard placement, which hashes the records)
// and every worker answer.

const (
	classes        = 2
	labelQuorum    = 3
	backlogPrefix  = "bl"
	backlogQuorum  = 1 // one answer would finish a backlog task; see preload
	backlogRecords = 3
)

// labelOf is every simulated worker's answer for a record: a pure function
// of the record's content (FNV-1a), so the consensus of any task is known
// before a single answer is submitted.
func labelOf(record string) int {
	h := uint32(2166136261)
	for i := 0; i < len(record); i++ {
		h ^= uint32(record[i])
		h *= 16777619
	}
	return int(h>>1) % classes
}

// answerInto fills labels with the worker's answer for an assignment.
func answerInto(labels []int, records []string) []int {
	labels = labels[:0]
	for _, r := range records {
		labels = append(labels, labelOf(r))
	}
	return labels
}

// expectBits packs a task's expected consensus one bit per record (tasks
// have at most 8 records and 2 classes), so tracking a hundred thousand
// tasks costs a byte each instead of a slice.
func expectBits(records []string) uint8 {
	var b uint8
	for i, r := range records {
		b |= uint8(labelOf(r)) << i
	}
	return b
}

// maxPriority is the top of the foreground priority range 1..maxPriority
// (the standing backlog sits at 0).
const maxPriority = 3

// taskGen is one driver's seeded stream of task specs.
type taskGen struct {
	rng      *rand.Rand
	prefix   string
	n        int
	w        workload // record range and quorum
	specsBuf []server.TaskSpec
}

// newTaskGen seeds driver d's stream; streams of different drivers and
// seeds share no records, so no two tasks hash alike by accident.
func newTaskGen(seed int64, d int, w workload) *taskGen {
	return &taskGen{
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(d)*7919 + 1)),
		prefix: "s" + strconv.FormatInt(seed, 10) + "d" + strconv.Itoa(d) + "t",
		w:      w,
	}
}

// next returns the stream's next task: the workload's record range and
// quorum, 2 classes, a priority in 1..maxPriority.
func (g *taskGen) next() server.TaskSpec {
	nrec := g.w.minRecords + g.rng.Intn(g.w.maxRecords-g.w.minRecords+1)
	recs := make([]string, nrec)
	base := g.prefix + strconv.Itoa(g.n) + "r"
	for j := range recs {
		recs[j] = base + strconv.Itoa(j)
	}
	g.n++
	return server.TaskSpec{
		Records:  recs,
		Classes:  classes,
		Quorum:   g.w.quorum,
		Priority: 1 + g.rng.Intn(maxPriority),
	}
}

// batch returns the next n tasks; the slice is reused by the next call.
func (g *taskGen) batch(n int) []server.TaskSpec {
	g.specsBuf = g.specsBuf[:0]
	for i := 0; i < n; i++ {
		g.specsBuf = append(g.specsBuf, g.next())
	}
	return g.specsBuf
}

// backlogSpecs returns backlog tasks [from, from+n): priority 0, fixed
// shape, contents derived from the seed.
func backlogSpecs(seed int64, from, n int) []server.TaskSpec {
	specs := make([]server.TaskSpec, n)
	for i := range specs {
		recs := make([]string, backlogRecords)
		base := backlogPrefix + strconv.FormatInt(seed, 10) + "-" + strconv.Itoa(from+i) + "r"
		for j := range recs {
			recs[j] = base + strconv.Itoa(j)
		}
		specs[i] = server.TaskSpec{Records: recs, Classes: classes, Quorum: backlogQuorum}
	}
	return specs
}

// isBacklog reports whether an assignment is a standing-backlog task.
func isBacklog(a server.Assignment) bool {
	return len(a.Records) > 0 && len(a.Records[0]) > len(backlogPrefix) && a.Records[0][:len(backlogPrefix)] == backlogPrefix
}

// streamHash fingerprints the inputs a seed generates for a workload: the
// head of the backlog and the first tasks of both drivers' streams with
// their expected answers. Equal seeds must give equal hashes.
func streamHash(seed int64, w workload) uint64 {
	h := fnv.New64a()
	put := func(spec server.TaskSpec) {
		for _, r := range spec.Records {
			h.Write([]byte(r))
			h.Write([]byte{byte(labelOf(r))})
		}
		h.Write([]byte{0xff, byte(spec.Priority), byte(spec.Quorum), byte(spec.Classes)})
	}
	for _, s := range backlogSpecs(seed, 0, 64) {
		put(s)
	}
	for d := 0; d < numDrivers; d++ {
		g := newTaskGen(seed, d, w)
		for i := 0; i < 512; i++ {
			put(g.next())
		}
	}
	return h.Sum64()
}

// pacer is the open-loop schedule of the paced requester: send k is due at
// start + k·every whatever happened to the sends before it. A send that
// starts late is still charged from its due time, so a stall shows up in
// the latency of the work queued behind it (and in the lateness record)
// instead of silently thinning the offered load.
type pacer struct {
	start  int64 // ns on the run clock
	every  int64
	k      int64
	lateMs []float64
}

func newPacer(start int64, every time.Duration) *pacer {
	return &pacer{start: start, every: int64(every)}
}

// due is when the next send is scheduled.
func (p *pacer) due() int64 { return p.start + p.k*p.every }

// sent records that the next send began at now and returns the due time
// its work must be timed from.
func (p *pacer) sent(now int64) int64 {
	due := p.due()
	late := now - due
	if late < 0 {
		late = 0
	}
	p.lateMs = append(p.lateMs, float64(late)/1e6)
	p.k++
	return due
}
