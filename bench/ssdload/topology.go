package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/ssd"
)

// topology says how a workload's serving tier is built. The zero value is
// cmd/ssdserve's defaults over one durable directory.
type topology struct {
	poolBytes  int64         // core.Options.PoolBytes (ssdserve -pool-bytes)
	checkpoint time.Duration // ssdserve -checkpoint-interval; 0 = its 5 min default
	followers  int           // read replicas behind a server.Router
}

// ssdserve's flag defaults (cmd/ssdserve/main.go).
const (
	defaultTimeout       = 30 * time.Second
	defaultMaxTimeout    = 5 * time.Minute
	defaultCheckpoint    = 5 * time.Minute
	defaultCheckpointWAL = 64 << 20
	shutdownGrace        = 10 * time.Second
)

// quiet is the servers' logger: errors only, so a healthy run prints nothing.
var quiet = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))

// httpFront is one listener on 127.0.0.1:0 and the goroutine serving it.
type httpFront struct {
	url    string
	srv    *http.Server
	served chan struct{} // closed when Serve has returned
}

func listen(h http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &httpFront{
		url:    "http://" + ln.Addr().String(),
		srv:    &http.Server{Handler: h},
		served: make(chan struct{}),
	}
	go func() {
		defer close(f.served)
		f.srv.Serve(ln) // returns http.ErrServerClosed once close ran
	}()
	return f, nil
}

// close stops the listener, waits for idle connections (bounded), and returns
// once the serving goroutine has exited.
func (f *httpFront) close() {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		f.srv.Close()
	}
	<-f.served
}

// node is one ssdserve-equivalent: a durable database, its server, its
// listener and — on a follower — the replication loop.
type node struct {
	db    *core.Database
	srv   *server.Server
	front *httpFront

	stopFollow context.CancelFunc
	followed   chan struct{} // closed when Follower.Run has returned
}

// startNode opens dir and serves it the way cmd/ssdserve does; leader != ""
// makes it a follower of that base URL.
func startNode(dir string, topo topology, leader string) (*node, error) {
	db, err := core.OpenPathOptions(dir, core.Options{PoolBytes: topo.poolBytes})
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		DefaultTimeout:     defaultTimeout,
		MaxTimeout:         defaultMaxTimeout,
		CheckpointInterval: defaultCheckpoint,
		CheckpointMaxWAL:   defaultCheckpointWAL,
		Logger:             quiet,
		Role:               "leader",
	}
	if topo.checkpoint > 0 {
		cfg.CheckpointInterval = topo.checkpoint
	}
	n := &node{db: db}
	var follower *server.Follower
	if leader != "" {
		follower = server.NewFollower(db, leader, quiet)
		cfg.ReadOnly = true
		cfg.Role = "follower"
		cfg.LeaderURL = leader
		cfg.Follower = follower
	}
	n.srv = server.New(db, cfg)
	if n.front, err = listen(n.srv.Handler()); err != nil {
		n.stop()
		return nil, err
	}
	if follower != nil {
		ctx, cancel := context.WithCancel(context.Background())
		n.stopFollow, n.followed = cancel, make(chan struct{})
		go func() {
			defer close(n.followed)
			follower.Run(ctx)
		}()
	}
	return n, nil
}

// stopServing ends replication, drains the server (which stops its
// checkpointer) and closes the listener. The database stays open.
func (n *node) stopServing() {
	if n.stopFollow != nil {
		n.stopFollow()
		<-n.followed
		n.stopFollow = nil
	}
	if n.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		n.srv.Shutdown(ctx)
		cancel()
		n.srv = nil
	}
	if n.front != nil {
		n.front.close()
		n.front = nil
	}
}

// stop is stopServing plus closing the database handle — with no final
// checkpoint, unlike ssdserve's SIGTERM path: the recovery step wants the
// log tail left in place.
func (n *node) stop() {
	n.stopServing()
	if n.db != nil {
		n.db.CloseWAL()
		n.db = nil
	}
}

// cluster is a workload's whole serving tier. Clients talk to frontURL: the
// single node, or the router in front of leader + followers.
type cluster struct {
	dir       string // the leader's durable directory
	leader    *node
	followers []*node
	router    *server.Router
	routerFE  *httpFront
	frontURL  string

	bootstrap time.Duration // follower snapshot download + open, summed
	open      time.Duration // core.OpenPathOptions on the leader

	// What has been acknowledged so far, for the check after the reopen:
	// the marker title of every insert, and the highest commit position.
	acked   []string
	lastSeq uint64
}

// noteAcks adds a client's acknowledged commits to the cluster's record.
func (c *cluster) noteAcks(cl *client) {
	c.acked = append(c.acked, cl.acked...)
	c.lastSeq = max(c.lastSeq, cl.lastSeq)
}

// startCluster seeds root/leader from g as generation 1 (what `ssdserve
// -data D -demo N` does on first start), opens and serves it, and brings up
// the followers and router the topology asks for.
func startCluster(root string, g *ssd.Graph, topo topology) (*cluster, error) {
	c := &cluster{dir: filepath.Join(root, "leader")}
	if err := core.FromGraph(g).SavePath(c.dir); err != nil {
		return nil, err
	}
	start := time.Now()
	var err error
	if c.leader, err = startNode(c.dir, topo, ""); err != nil {
		return nil, err
	}
	c.open = time.Since(start)
	c.frontURL = c.leader.front.url
	if topo.followers == 0 {
		return c, nil
	}
	var replicas []string
	for i := 0; i < topo.followers; i++ {
		fdir := filepath.Join(root, fmt.Sprintf("follower%d", i))
		start := time.Now()
		if err := server.BootstrapFollower(context.Background(), nil, c.frontURL, fdir); err != nil {
			c.stop()
			return nil, err
		}
		f, err := startNode(fdir, topo, c.leader.front.url)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.bootstrap += time.Since(start)
		c.followers = append(c.followers, f)
		replicas = append(replicas, f.front.url)
	}
	c.router = server.NewRouter(server.RouterConfig{
		Leader:   c.leader.front.url,
		Replicas: replicas,
		Logger:   quiet,
	})
	if c.routerFE, err = listen(c.router.Handler()); err != nil {
		c.stop()
		return nil, err
	}
	c.frontURL = c.routerFE.url
	return c, nil
}

// settle waits until every follower has applied what the leader has
// committed, so that what comes next does not share the cores or the heap
// with replication applies. Without followers it returns at once.
func (c *cluster) settle() error {
	seq := c.leader.db.CommitSeq()
	for _, f := range c.followers {
		ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		err := f.db.WaitForSeq(ctx, seq)
		cancel()
		if err != nil {
			return fmt.Errorf("follower never reached commit %d: %w", seq, err)
		}
	}
	return nil
}

// stopServing takes every listener, replication loop and health loop down
// and closes the followers; the leader's database stays open for the
// recovery step.
func (c *cluster) stopServing() {
	for _, f := range c.followers {
		f.stop()
	}
	c.followers = nil
	if c.routerFE != nil {
		c.routerFE.close()
		c.routerFE = nil
	}
	if c.router != nil {
		c.router.Stop()
		c.router = nil
	}
	if c.leader != nil {
		c.leader.stopServing()
	}
	// The router and followers reach their backends through the default
	// transport; drop its kept-alive connections with the servers gone.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

func (c *cluster) stop() {
	c.stopServing()
	if c.leader != nil {
		c.leader.stop()
		c.leader = nil
	}
}
