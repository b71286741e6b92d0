package router

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/serve"
)

// HeaderShards reports fan-out completeness as "ok/total", e.g. "3/4"
// on a degraded answer with one shard down. It is always set, so "4/4"
// positively asserts a complete answer.
const HeaderShards = "X-Ajaxserve-Shards"

// HeaderHedges is set by no tier; the name stays while benchmark/ reads
// it (ROADMAP item 1).
const HeaderHedges = "X-Ajaxserve-Hedges"

// ServerConfig parameterizes the router's /search front; its fields,
// defaults and doc comments are serve.FrontConfig's. QueryTimeout is
// also the deadline budget every shard call clamps to; the per-shard
// deadline lives in the Router's Config.ShardTimeout.
type ServerConfig = serve.FrontConfig

// NewServer wraps rt in the /search front ajaxserve also answers
// through, so clients cannot tell a router from a single snapshot
// server by the bytes (the differential battery pins this), and mounts
// /healthz beside it. tel may be nil.
func NewServer(rt *Router, cfg ServerConfig, tel *obs.Telemetry) *serve.Front {
	f := serve.NewFront(cfg, serve.Tier{
		Name:           "router",
		BudgetFloor:    rt.cfg.BudgetFloor,
		Clock:          rt.clock,
		Shed:           tel.Counter("router.shed"),
		Deadline:       tel.Counter("router.deadline"),
		BudgetRejected: tel.Counter("router.budget_rejected"),
	}, rt.answer, tel)
	f.Handle("/healthz", rt.handleHealth)
	return f
}

// answer is the router's serve.Searcher: the fan-out, on a budget that
// ends at the front's deadline.
func (r *Router) answer(ctx context.Context, q string, k int, deadline time.Time, h http.Header) (serve.Answer, error) {
	if !deadline.IsZero() {
		ctx = WithBudget(ctx, deadline, r.clock)
	}
	m, err := r.Search(ctx, q, k)
	// Fan-out metadata (shard completeness) rides on a header, never in
	// the body: the body is ajaxserve's own, byte for byte.
	if m != nil {
		h.Set(HeaderShards, fmt.Sprintf("%d/%d", m.ShardsOK, m.ShardsTotal))
	}
	if err != nil {
		return serve.Answer{}, err
	}
	return serve.Answer{Results: m.Results, Gen: m.Gen, Docs: m.Docs, States: m.States}, nil
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

func (rt *Router) handleHealth(w http.ResponseWriter, _ *http.Request) {
	reps := make([]int, rt.NumShards())
	healthy := make([]int, rt.NumShards())
	status, code := "ok", http.StatusOK
	for i := range reps {
		reps[i] = rt.Replicas(i)
		healthy[i] = rt.HealthyReplicas(i)
		if healthy[i] == 0 {
			// A shard with no healthy replica cannot answer complete
			// queries: this router is degraded, say so with a 503.
			status, code = "degraded", http.StatusServiceUnavailable
		}
	}
	serve.WriteJSON(w, code, healthResponse{
		Status:   status,
		Shards:   rt.NumShards(),
		Replicas: reps,
		Healthy:  healthy,
		Partial:  rt.cfg.Partial,
	})
}
