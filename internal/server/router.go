// Router: the stateless routing front of the serving tier. It owns no data —
// it forwards requests to one leader and a set of follower replicas:
//
//   - POST /mutate and POST /checkpoint pin to the leader (the single writer);
//   - POST /query fans out across healthy replicas round-robin, preferring
//     one already at or past the request's X-SSD-Seq token so tokened reads
//     rarely wait, and falling back to the leader when no replica is usable;
//   - GET /healthz aggregates the health of every backend.
//
// Consistency is enforced by the backends, not here: a replica holds or
// rejects (503) a tokened read by its own commit position, so the router's
// health-poll view being a moment stale can cost a wait, never staleness.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"log/slog"

	"repro/internal/obs"
)

// DefaultHealthInterval is the router's backend health-poll period.
const DefaultHealthInterval = time.Second

var (
	obsRouterQueries = obs.Default.Counter("ssd_router_queries_total",
		"Queries routed to a backend.")
	obsRouterMutations = obs.Default.Counter("ssd_router_mutations_total",
		"Mutations routed to the leader.")
	obsRouterFailovers = obs.Default.Counter("ssd_router_failovers_total",
		"Queries retried on another backend after the first choice failed.")
	obsRouterHealthy = obs.Default.Gauge("ssd_router_healthy_backends",
		"Backends (leader + replicas) currently passing health checks.")
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Leader is the writer's base URL. Mutations and checkpoints go only
	// here; queries fall back here when no replica is usable.
	Leader string
	// Replicas are follower base URLs serving read-only queries.
	Replicas []string
	// HealthInterval is the backend poll period (default DefaultHealthInterval).
	HealthInterval time.Duration
	// Client issues all backend requests (default: a plain http.Client).
	Client *http.Client
	Logger *slog.Logger
}

// backend is the router's cached view of one server, refreshed by the
// health-poll loop.
type backend struct {
	url       string
	healthy   atomic.Bool
	commitSeq atomic.Uint64
}

// Router fans requests out over a replicated serving tier. Create with
// NewRouter, serve Handler(), and Stop() to end the health loop.
type Router struct {
	cfg      RouterConfig
	client   *http.Client
	log      *slog.Logger
	leader   *backend
	replicas []*backend
	rr       atomic.Uint64 // round-robin cursor over replicas

	ctx      context.Context // ends the health loop
	stopLoop context.CancelFunc
	stopOnce sync.Once
	done     sync.WaitGroup
}

// NewRouter builds a router over leader + replicas and starts its health
// loop. Backends start unknown (unhealthy) and are probed immediately.
func NewRouter(cfg RouterConfig) *Router {
	if cfg.Client == nil {
		cfg.Client = &http.Client{}
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	rt := &Router{
		cfg:    cfg,
		client: cfg.Client,
		log:    cfg.Logger,
		leader: &backend{url: cfg.Leader},
	}
	rt.ctx, rt.stopLoop = context.WithCancel(context.Background())
	for _, u := range cfg.Replicas {
		rt.replicas = append(rt.replicas, &backend{url: u})
	}
	rt.pollAll()
	rt.done.Add(1)
	go rt.healthLoop(rt.ctx)
	return rt
}

// Stop ends the health loop. In-flight proxied requests finish on their own.
func (rt *Router) Stop() {
	rt.stopOnce.Do(rt.stopLoop)
	rt.done.Wait()
}

// healthLoop refreshes every backend's health and commit position until Stop.
//
//ssd:ctxpoll
func (rt *Router) healthLoop(ctx context.Context) {
	defer rt.done.Done()
	t := time.NewTicker(rt.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rt.pollAll()
		}
	}
}

func (rt *Router) pollAll() {
	healthy := int64(0)
	for _, b := range append([]*backend{rt.leader}, rt.replicas...) {
		if rt.poll(b) {
			healthy++
		}
	}
	obsRouterHealthy.Set(healthy)
}

// poll probes one backend's /healthz, recording reachability and commit
// position, and reports whether it is healthy.
func (rt *Router) poll(b *backend) bool {
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.HealthInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		b.healthy.Store(false)
		return false
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		b.healthy.Store(false)
		return false
	}
	defer resp.Body.Close()
	var h struct {
		Status    string `json:"status"`
		CommitSeq uint64 `json:"commit_seq"`
	}
	ok := resp.StatusCode == http.StatusOK &&
		json.NewDecoder(resp.Body).Decode(&h) == nil && h.Status == "ok"
	b.healthy.Store(ok)
	if ok {
		b.commitSeq.Store(h.CommitSeq)
	}
	return ok
}

// Handler returns the router's HTTP front.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", instrument("router_query", rt.handleQuery))
	mux.HandleFunc("POST /mutate", instrument("router_mutate", rt.forwardToLeader))
	mux.HandleFunc("POST /checkpoint", instrument("router_checkpoint", rt.forwardToLeader))
	mux.HandleFunc("GET /healthz", instrument("router_healthz", rt.handleHealthz))
	mux.HandleFunc("GET /metrics", handleMetrics)
	return mux
}

// pickReplicas orders the healthy replicas for one query: round-robin
// rotation, with replicas already at or past tok moved to the front so a
// tokened read lands where it will not have to wait.
func (rt *Router) pickReplicas(tok uint64) []*backend {
	if len(rt.replicas) == 0 {
		return nil
	}
	start := int(rt.rr.Add(1)) % len(rt.replicas)
	var ahead, behind []*backend
	for i := range rt.replicas {
		b := rt.replicas[(start+i)%len(rt.replicas)]
		if !b.healthy.Load() {
			continue
		}
		if b.commitSeq.Load() >= tok {
			ahead = append(ahead, b)
		} else {
			behind = append(behind, b)
		}
	}
	return append(ahead, behind...)
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	tok, err := readSeqToken(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	obsRouterQueries.Inc()
	candidates := rt.pickReplicas(tok)
	if rt.leader.healthy.Load() || len(candidates) == 0 {
		candidates = append(candidates, rt.leader) // last resort: the writer
	}
	for i, b := range candidates {
		if i > 0 {
			obsRouterFailovers.Inc()
		}
		if rt.proxy(w, r, b.url, body) {
			return
		}
		rt.log.Warn("backend failed before response; trying next", "backend", b.url)
		b.healthy.Store(false)
	}
	httpError(w, http.StatusBadGateway, fmt.Errorf("router: no backend could serve the query"))
}

func (rt *Router) forwardToLeader(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	if err != nil {
		bodyError(w, err)
		return
	}
	obsRouterMutations.Inc()
	if !rt.proxy(w, r, rt.cfg.Leader, body) {
		httpError(w, http.StatusBadGateway, fmt.Errorf("router: leader %s is unreachable", rt.cfg.Leader))
	}
}

// proxy forwards the request (with body) to base, streaming the response
// back. It reports false only when nothing was written to w — the caller may
// then fail over; once any byte is relayed the attempt is committed.
func (rt *Router) proxy(w http.ResponseWriter, r *http.Request, base string, body []byte) bool {
	req, err := http.NewRequestWithContext(r.Context(), r.Method, base+r.URL.Path, bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header = r.Header.Clone()
	resp, err := rt.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set("X-SSD-Backend", base)
	w.WriteHeader(resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	buf := make([]byte, 32*1024)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true // client went away; attempt still committed
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return true
		}
	}
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type bh struct {
		URL       string `json:"url"`
		Healthy   bool   `json:"healthy"`
		CommitSeq uint64 `json:"commit_seq"`
	}
	view := func(role string, b *backend) map[string]any {
		return map[string]any{"role": role, "backend": bh{
			URL: b.url, Healthy: b.healthy.Load(), CommitSeq: b.commitSeq.Load(),
		}}
	}
	backends := []map[string]any{view("leader", rt.leader)}
	healthyReplicas := 0
	for _, b := range rt.replicas {
		backends = append(backends, view("replica", b))
		if b.healthy.Load() {
			healthyReplicas++
		}
	}
	status := "ok"
	code := http.StatusOK
	if !rt.leader.healthy.Load() && healthyReplicas == 0 {
		status, code = "unavailable", http.StatusServiceUnavailable
	} else if !rt.leader.healthy.Load() {
		status = "read-only" // replicas can serve reads; writes will fail
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]any{
		"status":           status,
		"role":             "router",
		"replicas_healthy": healthyReplicas,
		"backends":         backends,
	})
}
