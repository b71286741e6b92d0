package router

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ajaxcrawl/internal/admission"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/serve"
)

// HeaderShards reports fan-out completeness as "ok/total", e.g. "3/4"
// on a degraded answer with one shard down. It is always set, so "4/4"
// positively asserts a complete answer.
const HeaderShards = "X-Ajaxserve-Shards"

// HeaderHedges reports how many hedged attempts this query fired.
const HeaderHedges = "X-Ajaxserve-Hedges"

// ServerConfig parameterizes the router's HTTP layer.
type ServerConfig struct {
	// DefaultK is the result count when ?k= is absent (default 10).
	DefaultK int
	// MaxK caps ?k= (default 100).
	MaxK int
	// MaxInflight is the admission limiter's hard ceiling on
	// concurrently routed queries; excess requests queue (when
	// AdmissionQueue > 0) or are shed with 429 (0 = unlimited).
	MaxInflight int
	// AdmissionMin is the adaptive limit's floor (default 1).
	AdmissionMin int
	// AdmissionQueue bounds the admission wait queue (0 = no queue:
	// shed immediately at the limit).
	AdmissionQueue int
	// AdmissionTarget is the CoDel-style sojourn bound for queued
	// requests (0 = the admission package default, 50ms).
	AdmissionTarget time.Duration
	// QueryTimeout is the per-request deadline (0 = none). It also
	// seeds the deadline budget propagated to every shard call (clamped
	// to any budget the caller itself forwarded). The per-shard
	// deadline lives in the Router's Config.ShardTimeout.
	QueryTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.DefaultK <= 0 {
		c.DefaultK = 10
	}
	if c.MaxK <= 0 {
		c.MaxK = 100
	}
	return c
}

// Server is the router's HTTP front end: /search with the same request
// and body contract as ajaxserve (so clients cannot tell a router from
// a single snapshot server by the bytes — the differential battery pins
// this), plus fan-out metadata in response headers.
type Server struct {
	rt   *Router
	cfg  ServerConfig
	tel  *obs.Telemetry
	gate serve.Gate
}

// NewServer wraps rt in the HTTP layer. tel may be nil.
func NewServer(rt *Router, cfg ServerConfig, tel *obs.Telemetry) *Server {
	cfg = cfg.withDefaults()
	s := &Server{rt: rt, cfg: cfg, tel: tel, gate: serve.Gate{Tier: "router", Work: "routing", Shed: tel.Counter("router.shed")}}
	if cfg.MaxInflight > 0 {
		s.gate.Limiter = admission.New(admission.Config{
			Min:         cfg.AdmissionMin,
			Max:         cfg.MaxInflight,
			Queue:       cfg.AdmissionQueue,
			QueueTarget: cfg.AdmissionTarget,
			Clock:       rt.clock,
			Tel:         tel,
		})
	}
	return s
}

// Router exposes the wrapped Router.
func (s *Server) Router() *Router { return s.rt }

// Limiter exposes the admission limiter (nil when MaxInflight is 0).
func (s *Server) Limiter() *admission.Limiter { return s.gate.Limiter }

// Routes mounts the routing endpoints on mux: /search and /healthz.
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("/search", s.handleSearch)
	mux.HandleFunc("/healthz", s.handleHealth)
}

// Handler returns the routing endpoints wrapped in the obs request
// middleware, backed by this server's telemetry registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	s.Routes(mux)
	return obs.InstrumentHandler(s.tel.Registry(), mux)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	tel := s.tel
	clock := s.rt.clock
	arrival := clock.Now()

	// The effective budget is this router's own deadline clamped to
	// whatever budget an upstream tier already propagated.
	budget := s.cfg.QueryTimeout
	if in, ok := serve.BudgetFromRequest(r); ok && (budget == 0 || in < budget) {
		budget = in
	}
	if budget > 0 && budget <= s.rt.cfg.BudgetFloor {
		tel.Counter("router.budget_rejected").Inc()
		serve.WriteError(w, http.StatusServiceUnavailable, "deadline budget below floor")
		return
	}

	tok, ok := s.gate.Admit(w, r)
	if !ok {
		return
	}
	q, k, ok := serve.ParseSearch(w, r.URL.Query(), tok, s.cfg.DefaultK, s.cfg.MaxK, true)
	if !ok {
		return
	}
	defer tok.Release()

	ctx := obs.With(r.Context(), tel)
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	if budget > 0 {
		// Queue time already spent the caller's budget; the deadline is
		// anchored at arrival, and every shard call clamps to what is
		// left of it at launch time.
		ctx = WithBudget(ctx, arrival.Add(budget), clock)
	}

	m, err := s.rt.Search(ctx, q, k)
	if err != nil {
		// The fleet could not produce an answer (no shard responded, or
		// a shard failed with partial results disabled): the router is
		// a gateway and says so.
		if m != nil {
			w.Header().Set(HeaderShards, fmt.Sprintf("%d/%d", m.ShardsOK, m.ShardsTotal))
		}
		serve.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	// Fan-out metadata (shard completeness, hedges) rides on headers,
	// never in the body: the body is ajaxserve's own, byte for byte.
	w.Header().Set(serve.HeaderGeneration, strconv.FormatInt(m.Gen, 10))
	w.Header().Set(serve.HeaderDocs, strconv.Itoa(m.Docs))
	w.Header().Set(serve.HeaderStates, strconv.Itoa(m.States))
	w.Header().Set(HeaderShards, fmt.Sprintf("%d/%d", m.ShardsOK, m.ShardsTotal))
	w.Header().Set(HeaderHedges, strconv.Itoa(m.Hedges))
	serve.WriteSearch(w, q, k, m.Results)
}

// healthResponse is the router's /healthz body. Healthy reports the
// per-shard non-quarantined replica counts — live state, not static
// topology — so a load balancer in front of several routers can drain
// one whose fleet view has a hole.
type healthResponse struct {
	Status   string `json:"status"`
	Shards   int    `json:"shards"`
	Replicas []int  `json:"replicas"`
	Healthy  []int  `json:"healthy"`
	Partial  bool   `json:"partial"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	reps := make([]int, s.rt.NumShards())
	healthy := make([]int, s.rt.NumShards())
	status, code := "ok", http.StatusOK
	for i := range reps {
		reps[i] = s.rt.Replicas(i)
		healthy[i] = s.rt.HealthyReplicas(i)
		if healthy[i] == 0 {
			// A shard with no healthy replica cannot answer complete
			// queries: this router is degraded, say so with a 503.
			status, code = "degraded", http.StatusServiceUnavailable
		}
	}
	serve.WriteJSON(w, code, healthResponse{
		Status:   status,
		Shards:   s.rt.NumShards(),
		Replicas: reps,
		Healthy:  healthy,
		Partial:  s.rt.cfg.Partial,
	})
}
