// Command clamshell-server runs the retainer-pool HTTP routing server for
// live crowd deployments. Workers join, heartbeat, poll for tasks and
// submit labels; clients enqueue tasks and read consensus results.
//
// With -shards N > 1 the server runs as a fabric of N independently-locked
// pool shards behind one router (see internal/fabric): tasks are placed by
// consistent hashing of their content, workers are pinned to shards on
// join, and idle shards steal work across the fabric so straggler
// mitigation stays global. -shards 1 (the default) speaks byte-for-byte
// the protocol of the historical single-mutex server (pinned by a golden
// transcript in internal/fabric).
//
// With -persist-dir the fabric journals every durable mutation through a
// per-shard append-only op log and periodically compacts it into per-shard
// snapshots, so a restart (or crash) recovers the standing backlog and the
// pay/quality ledger instead of losing them. -retention demotes completed
// tasks older than the window to compact vote tallies (consensus keeps its
// full history; the record payloads are dropped); -tally-horizon further
// ages tallies older than its window down to count-only consensus
// aggregates, bounding retained-log growth on long-lived deployments;
// -compact-interval sets the compaction cadence. Restarting with a different -shards value over
// the same directory re-places every task onto the new layout without
// losing any.
//
// With -listen-wire the server additionally speaks the binary wire
// protocol (internal/wire) on a second listener: the same five hot ops
// (join, enqueue, fetch, submit, leave/heartbeat) over persistent TCP
// connections with varint+CRC framing, for worker fleets whose poll rates
// make JSON/HTTP encode/decode the bottleneck. Both transports route into
// the same fabric; JSON/HTTP remains the control and compatibility
// surface.
//
// The same binary runs every role of a multi-node fabric. A node started
// with -node-index I -node-count N owns the stripe of global shard and
// task/worker ids congruent to I mod N; a front end started with
// -route addr1,addr2,... (node wire addresses, in node-index order)
// forwards every op to the stripe owner over persistent wire connections
// with retries and per-node circuit breakers, merging fabric-wide reads.
// A process started with -follow addr mirrors that primary's journals
// into -persist-dir over the wire protocol's streaming replication pull
// (resumable by segment offset, CRC-checked end to end) and serves
// health/metrics until POST /api/promote recovers the mirror through the
// standard journal path and swaps in the full node API. On a node, -repl
// exposes the replication feed and gates mutation acknowledgements on
// follower durability (degrading to local-only after -repl-barrier).
//
// With -hybrid the server runs the live hybrid learning plane
// (internal/hybrid): finalized labels of feature-carrying tasks train a
// per-job committee model, tasks the model can call at or above
// -confidence are auto-finalized without further crowd work (journaled,
// with model provenance on /api/result and /api/consensus), and every
// -relabel-interval the pending backlog is re-prioritized by vote entropy
// so crowd attention flows to the tasks the model is least sure about.
//
// Usage:
//
//	clamshell-server -addr :8080 -listen-wire :9090 -shards 8 -speculation 1 \
//	    -worker-timeout 2m -persist-dir /var/lib/clamshell -retention 24h \
//	    -compact-interval 1m -fsync group
//
// API (JSON over HTTP):
//
//	POST /api/join        {"name": "..."}                 -> {"worker_id": N}
//	POST /api/heartbeat   {"worker_id": N}
//	POST /api/leave       {"worker_id": N}
//	POST /api/tasks       {"tasks": [{records, classes, quorum}]} -> {"task_ids": [...]}
//	GET  /api/task?worker_id=N                            -> assignment or 204
//	POST /api/submit      {"worker_id", "task_id", "labels"}
//	GET  /api/result?task_id=N                            -> status + consensus
//	GET  /api/status                                      -> pool counters
package main

import (
	"crypto/tls"
	"flag"
	"log"
	"net"
	"net/http"
	"time"

	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/hybrid"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	wireAddr := flag.String("listen-wire", "", "binary wire-protocol listen address, e.g. :9090 (empty = disabled)")
	wireRate := flag.Float64("wire-rate", 0, "per-connection wire op rate limit in ops/sec; over-limit ops get an in-band throttle error (0 = unlimited)")
	wireTLSCert := flag.String("wire-tls-cert", "", "serve the wire listener over TLS with this certificate file (with -wire-tls-key)")
	wireTLSKey := flag.String("wire-tls-key", "", "TLS private key file for -wire-tls-cert")
	shards := flag.Int("shards", 1, "independently-locked pool shards")
	spec := flag.Int("speculation", 1, "speculative duplicates per outstanding answer")
	timeout := flag.Duration("worker-timeout", 2*time.Minute, "expire workers after this heartbeat silence")
	maintenance := flag.Duration("maintenance-threshold", 0, "retire workers slower than this per record (0 = off)")
	persistDir := flag.String("persist-dir", "", "journal + snapshot directory for durable state (empty = in-memory only)")
	retention := flag.Duration("retention", 0, "demote completed tasks older than this to vote tallies at compaction (0 = keep full history)")
	tallyHorizon := flag.Duration("tally-horizon", 0, "age retained vote tallies older than this to count-only aggregates at compaction (0 = keep full tallies forever)")
	compactInterval := flag.Duration("compact-interval", time.Minute, "how often to compact the op journal into a snapshot (with -persist-dir)")
	fsync := flag.String("fsync", "group", "op-journal fsync policy: commit (every op), group (batched on a short ticker) or off")
	fsyncInterval := flag.Duration("fsync-interval", 0, "group-commit batching interval (0 = the journal default)")
	hybridOn := flag.Bool("hybrid", false, "enable the live hybrid learning plane: train on finalized labels, auto-finalize confident tasks, re-prioritize uncertain ones")
	confidence := flag.Float64("confidence", 0.95, "minimum model confidence (soft-vote probability) before a task is auto-finalized (with -hybrid)")
	relabelInterval := flag.Duration("relabel-interval", 30*time.Second, "uncertainty re-prioritization cadence for the pending backlog (with -hybrid; 0 = off)")
	nodeIndex := flag.Int("node-index", 0, "this node's index in a multi-node fabric (with -node-count)")
	nodeCount := flag.Int("node-count", 1, "total nodes in the fabric; this node serves its (node-index mod node-count) stripe of shard and task ids")
	replOn := flag.Bool("repl", false, "serve journal replication to followers over the wire listener and gate mutation acks on follower durability (needs -persist-dir and -listen-wire)")
	replBarrier := flag.Duration("repl-barrier", 5*time.Second, "how long a mutation ack waits for the attached follower before degrading to local-only durability (with -repl)")
	route := flag.String("route", "", "run as a stateless router over these comma-separated node wire addresses, in node-index order (no local shards)")
	follow := flag.String("follow", "", "run as a journal-shipping follower of the primary at this wire address, mirroring into -persist-dir (POST /api/promote to take over)")
	flag.Parse()

	cfg := server.Config{
		SpeculationLimit:     *spec,
		WorkerTimeout:        *timeout,
		MaintenanceThreshold: *maintenance,
		TallyHorizon:         *tallyHorizon,
	}
	persist := fabric.PersistOptions{
		Dir:             *persistDir,
		Retention:       *retention,
		CompactInterval: *compactInterval,
		Fsync:           *fsync,
		FsyncInterval:   *fsyncInterval,
	}
	if *route != "" && *follow != "" {
		log.Fatal("-route and -follow are mutually exclusive roles")
	}
	if *nodeIndex < 0 || *nodeCount < 1 || *nodeIndex >= *nodeCount {
		log.Fatalf("-node-index %d out of range for -node-count %d", *nodeIndex, *nodeCount)
	}
	if *route != "" {
		runRouter(*addr, *wireAddr, *route)
		return
	}
	if *follow != "" {
		runFollower(*addr, *follow, cfg, persist, *nodeIndex, *nodeCount, *wireAddr, *replOn, *replBarrier)
		return
	}

	fab := fabric.NewNode(cfg, *shards, *nodeIndex, *nodeCount)
	if *persistDir != "" {
		if err := fab.OpenPersist(persist); err != nil {
			log.Fatalf("opening persistence: %v", err)
		}
		log.Printf("durable state in %s (retention %v, compaction every %v, fsync %s)",
			*persistDir, *retention, *compactInterval, *fsync)
	}
	if *replOn {
		if *wireAddr == "" {
			log.Fatal("-repl needs -listen-wire: followers pull over the wire protocol")
		}
		if err := fab.EnableReplication(*replBarrier); err != nil {
			log.Fatalf("enabling replication: %v", err)
		}
		log.Printf("replication enabled (ack barrier %v)", *replBarrier)
	}
	if *hybridOn {
		// After OpenPersist, so the plane re-seeds from the recovered
		// backlog; its auto-finalize decisions are journaled like any other
		// durable mutation and replay byte-exactly on the next recovery.
		plane := fab.EnableHybrid(hybrid.Config{
			Confidence:      *confidence,
			RelabelInterval: *relabelInterval,
		})
		defer plane.Close()
		log.Printf("hybrid learning plane enabled (confidence %.2f, relabel every %v)",
			*confidence, *relabelInterval)
	}
	if *wireAddr != "" {
		l := listen("wire", *wireAddr)
		scheme := "wire"
		if *wireTLSCert != "" || *wireTLSKey != "" {
			cert, err := tls.LoadX509KeyPair(*wireTLSCert, *wireTLSKey)
			if err != nil {
				log.Fatalf("wire TLS keypair: %v", err)
			}
			l = tls.NewListener(l, &tls.Config{Certificates: []tls.Certificate{cert}})
			scheme = "wire+tls"
		}
		ws := wire.NewServer(fab)
		ws.RateLimit = *wireRate
		ws.Barrier = fab.ReplBarrier()
		log.Printf("%s protocol listening on %s (rate limit %g ops/s/conn)", scheme, l.Addr(), *wireRate)
		go func() {
			// A permanently broken wire listener degrades the server to
			// HTTP-only rather than killing the live shard state with it
			// (Serve already retries transient accept errors internally).
			if err := ws.Serve(l); err != nil && !wire.IsClosed(err) {
				log.Printf("wire server stopped (continuing HTTP-only): %v", err)
			}
		}()
	}
	if *nodeCount > 1 {
		log.Printf("fabric node %d/%d: serving ids congruent to %d mod %d", *nodeIndex, *nodeCount, *nodeIndex, *nodeCount)
	}
	l := listen("http", *addr)
	log.Printf("clamshell-server listening on %s (%d shard(s))", l.Addr(), fab.NumShards())
	serveHTTP(l, fab)
}

// readHeaderTimeout bounds how long an HTTP connection may take to send
// its request headers, so a silent peer cannot pin a serving goroutine —
// the HTTP counterpart of the wire listener's handshake timeout.
const readHeaderTimeout = 10 * time.Second

// listen binds addr for the named listener, exiting on failure. Every role
// logs the bound l.Addr(), not the flag, so -addr :0 reports the real port.
func listen(what, addr string) net.Listener {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("%s listener: %v", what, err)
	}
	return l
}

// serveHTTP serves h on l, exiting the process when serving stops.
func serveHTTP(l net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
	log.Fatal(srv.Serve(l))
}
