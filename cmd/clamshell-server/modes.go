package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/clamshell/clamshell/internal/fabric"
	"github.com/clamshell/clamshell/internal/repl"
	"github.com/clamshell/clamshell/internal/server"
	"github.com/clamshell/clamshell/internal/wire"
)

// The two stateless roles of a multi-node deployment. A router fronts the
// fabric's nodes and forwards every op to the stripe owner; a follower
// mirrors one node's journals and promotes into its place on demand. Both
// run out of the same binary so a deployment is one artifact in three
// roles: clamshell-server (node), -route (router), -follow (follower).

// runRouter serves the stateless routing front end over the given
// comma-separated node wire addresses (in node-index order: the order IS
// the stripe assignment).
func runRouter(httpAddr, wireAddr, nodes string) {
	var remotes []*fabric.RemoteShard
	for _, a := range strings.Split(nodes, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			continue
		}
		remotes = append(remotes, fabric.NewRemoteShard(a, fabric.RemoteOptions{}))
	}
	if len(remotes) == 0 {
		log.Fatal("-route needs at least one node address")
	}
	rt := fabric.NewRouter(remotes, nil)
	if wireAddr != "" {
		l := listen("wire", wireAddr)
		ws := wire.NewServer(rt)
		log.Printf("wire protocol listening on %s (routing)", l.Addr())
		go func() {
			if err := ws.Serve(l); err != nil && !wire.IsClosed(err) {
				log.Printf("wire server stopped (continuing HTTP-only): %v", err)
			}
		}()
	}
	l := listen("http", httpAddr)
	log.Printf("clamshell-server routing on %s over %d node(s): %s", l.Addr(), len(remotes), nodes)
	serveHTTP(l, rt)
}

// followerState is the -follow role: a running journal mirror plus
// everything needed to promote it into a serving node.
type followerState struct {
	fol       *repl.Follower
	cfg       server.Config
	persist   fabric.PersistOptions
	nodeIndex int
	nodeCount int
	wireAddr  string
	replOn    bool
	replWait  time.Duration
	startedAt time.Time

	mu       sync.Mutex
	promoted http.Handler // nil until promotion
}

// runFollower mirrors the primary at primaryAddr into the persist
// directory and serves the follower control surface: health, metrics and
// POST /api/promote, which stops the pulls, recovers the mirror through
// the standard journal path and swaps the full node API in.
func runFollower(httpAddr, primaryAddr string, cfg server.Config, persist fabric.PersistOptions,
	nodeIndex, nodeCount int, wireAddr string, replOn bool, replWait time.Duration) {
	if persist.Dir == "" {
		log.Fatal("-follow requires -persist-dir (the mirror directory)")
	}
	fol, err := repl.NewFollower(repl.FollowerConfig{Addr: primaryAddr, Dir: persist.Dir})
	if err != nil {
		log.Fatalf("starting follower: %v", err)
	}
	go fol.Run()
	fs := &followerState{
		fol: fol, cfg: cfg, persist: persist,
		nodeIndex: nodeIndex, nodeCount: nodeCount,
		wireAddr: wireAddr, replOn: replOn, replWait: replWait,
		startedAt: time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/healthz", fs.handleHealthz)
	mux.HandleFunc("GET /metrics", fs.handleMetrics)
	mux.HandleFunc("GET /api/metricsz", fs.handleMetrics)
	mux.HandleFunc("POST /api/promote", fs.handlePromote)
	root := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Promotion swaps the whole node API in; the promote endpoint
		// itself stays reachable so a retried promotion is acknowledged.
		if r.Method == http.MethodPost && r.URL.Path == "/api/promote" {
			fs.handlePromote(w, r)
			return
		}
		fs.mu.Lock()
		h := fs.promoted
		fs.mu.Unlock()
		if h != nil {
			h.ServeHTTP(w, r)
			return
		}
		mux.ServeHTTP(w, r)
	})
	l := listen("http", httpAddr)
	log.Printf("clamshell-server on %s following %s into %s (POST /api/promote to take over)",
		l.Addr(), primaryAddr, persist.Dir)
	serveHTTP(l, root)
}

// lagMS is milliseconds since the last completed pull (0 before attach).
func (fs *followerState) lagMS() float64 {
	last := fs.fol.LastPull()
	if last.IsZero() {
		return 0
	}
	return float64(time.Since(last).Milliseconds())
}

func (fs *followerState) handleHealthz(w http.ResponseWriter, r *http.Request) {
	fs.mu.Lock()
	promoted := fs.promoted != nil
	fs.mu.Unlock()
	role := "follower"
	if promoted {
		role = "primary"
	}
	server.WriteJSON(w, http.StatusOK, map[string]any{
		"ok":                 true,
		"role":               role,
		"uptime_ms":          time.Since(fs.startedAt).Milliseconds(),
		"attached":           fs.fol.Attached(),
		"replication_lag_ms": fs.lagMS(),
		"shards":             fs.fol.Shards(),
	})
}

func (fs *followerState) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var b strings.Builder
	server.FollowerMetrics{
		Attached:    fs.fol.Attached(),
		LagMS:       fs.lagMS(),
		LagBytes:    float64(fs.fol.LagBytes()),
		PulledBytes: fs.fol.PulledBytes(),
		Bootstraps:  fs.fol.Bootstraps(),
	}.Render(&b)
	wire.WriteClientMetrics(&b, fs.fol.Reconnects())
	w.Write([]byte(b.String()))
}

// handlePromote turns the mirror into a serving node: stop the pulls,
// recover the mirrored journals through the standard boot path, arm
// replication for the node's own future follower, and swap the node API
// in. No journal surgery: the mirror is already a valid persist directory.
func (fs *followerState) handlePromote(w http.ResponseWriter, r *http.Request) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.promoted != nil {
		server.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "role": "primary", "already": true, "shards": fs.fol.Shards()})
		return
	}
	fs.fol.Stop()
	shards := fs.fol.Shards()
	if shards == 0 {
		http.Error(w, `{"error":"mirror is empty: follower never attached"}`, http.StatusConflict)
		return
	}
	fab := fabric.NewNode(fs.cfg, shards, fs.nodeIndex, fs.nodeCount)
	if err := fab.OpenPersist(fs.persist); err != nil {
		http.Error(w, fmt.Sprintf(`{"error":%q}`, err.Error()), http.StatusInternalServerError)
		return
	}
	if fs.replOn {
		if err := fab.EnableReplication(fs.replWait); err != nil {
			log.Printf("promotion: replication not re-armed: %v", err)
		}
	}
	if fs.wireAddr != "" {
		l, err := net.Listen("tcp", fs.wireAddr)
		if err != nil {
			log.Printf("promotion: wire listener: %v (serving HTTP only)", err)
		} else {
			ws := wire.NewServer(fab)
			ws.Barrier = fab.ReplBarrier()
			go func() {
				if err := ws.Serve(l); err != nil && !wire.IsClosed(err) {
					log.Printf("wire server stopped (continuing HTTP-only): %v", err)
				}
			}()
			log.Printf("promotion: wire protocol listening on %s", l.Addr())
		}
	}
	fs.promoted = fab
	log.Printf("promoted: serving %d shard(s) recovered from %s as node %d/%d",
		shards, fs.persist.Dir, fs.nodeIndex, fs.nodeCount)
	server.WriteJSON(w, http.StatusOK, map[string]any{"ok": true, "role": "primary", "shards": shards})
}
