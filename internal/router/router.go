// Package router is the query fan-out tier of the sharded serving
// fleet (thesis ch. 6's query shipping, scaled out of one process): one
// router owns N shard groups, each a set of R interchangeable replicas
// serving the same index shard. A query fans out to every shard group,
// each shard returns pre-idf candidates plus its local collection
// statistics (query.ShardResult), and the router validates the
// responses, drops duplicates, and hands them to query.Fold — the same
// function a single-snapshot Broker ranks with — which sums df and state
// counts across shards into the globally corrected idf of eq. 6.1 and
// selects one deterministic global top-k (score desc, then URL asc,
// then state asc; the differential test battery pins the bytes against
// the single-snapshot server).
//
// Robustness is first-class:
//
//   - Replica choice is power-of-two-choices on outstanding requests,
//     so a slow replica sheds load to its siblings instead of queueing.
//   - Failover: a replica whose attempt errors is replaced at once by
//     an unused sibling.
//   - Per-shard deadlines ride the injectable fetch.Clock, so the whole
//     schedule is testable in virtual time.
//   - Partial results: with Config.Partial set, a shard that errors or
//     times out degrades the answer (and says so in response metadata)
//     instead of failing the query.
package router

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
)

// ErrShardTimeout is the per-shard deadline error: no replica of the
// shard produced a valid response within Config.ShardTimeout.
var ErrShardTimeout = errors.New("router: shard timed out")

// Config parameterizes a Router.
type Config struct {
	// Shards is the fleet topology: Shards[i] lists the interchangeable
	// replicas of shard i. Every shard needs at least one replica.
	Shards [][]Backend
	// Weights are the ranking coefficients the router uses to fold the
	// tf·idf component in (nil = query.DefaultWeights). They must match
	// the shard servers' weights or rankings will diverge.
	Weights *query.Weights
	// ShardTimeout bounds one shard's whole call, failovers included
	// (0 = none). Measured on Clock, so virtual-time tests can script
	// it.
	ShardTimeout time.Duration
	// Partial tolerates failed shards: the query succeeds with the
	// responding subset (response metadata reports how many answered).
	// With Partial false any shard failure fails the query.
	Partial bool
	// Clock drives timeout and quarantine schedules (nil = wall clock).
	Clock fetch.Clock
	// Seed seeds the replica-pick PRNG (0 = 1), making pick sequences
	// reproducible in tests.
	Seed int64
	// EjectThreshold is the failure-EWMA level that quarantines a
	// replica (0 = 0.8; above 1 ejection never triggers).
	EjectThreshold float64
	// QuarantineBase and QuarantineMax bound the quarantine backoff
	// (0 = 5s / 5m): each failed probe doubles the sentence up to Max.
	QuarantineBase, QuarantineMax time.Duration
	// ProbationProbes is how many consecutive successful health probes
	// readmit a quarantined replica (0 = 2).
	ProbationProbes int
	// BudgetFloor fast-rejects shard calls whose remaining propagated
	// deadline budget is at or below this (0 = 2ms) — the caller has
	// already given up by then.
	BudgetFloor time.Duration
}

// replica is one backend plus its load and health accounting. The
// health fields are guarded by Router.mu.
type replica struct {
	backend     Backend
	outstanding atomic.Int64

	// health is the failure EWMA in [0, 1]: 0 is healthy, 1 is failing
	// every attempt.
	health float64
	// quarantined replicas are skipped by pick (except as a last
	// resort) until probation readmits them.
	quarantined     bool
	quarantineUntil time.Time
	backoff         time.Duration
	// probeOK counts consecutive successful probes in probation.
	probeOK int
}

// group is one shard's replica set.
type group struct {
	replicas []*replica
}

// Router fans queries out to shard groups and merges the responses.
type Router struct {
	cfg    Config
	w      query.Weights
	clock  fetch.Clock
	groups []*group
	stats  *statsTable

	// mu guards rng: replica picks are cheap and rare enough that one
	// lock beats per-goroutine PRNG plumbing.
	mu  sync.Mutex
	rng *rand.Rand
}

// New validates cfg and returns a ready Router.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: Config.Shards is empty")
	}
	r := &Router{
		cfg:   cfg,
		w:     query.DefaultWeights,
		clock: cfg.Clock,
	}
	if cfg.Weights != nil {
		r.w = *cfg.Weights
	}
	if r.clock == nil {
		r.clock = fetch.RealClock{}
	}
	if r.cfg.EjectThreshold <= 0 {
		r.cfg.EjectThreshold = 0.8
	}
	if r.cfg.QuarantineBase <= 0 {
		r.cfg.QuarantineBase = 5 * time.Second
	}
	if r.cfg.QuarantineMax <= 0 {
		r.cfg.QuarantineMax = 5 * time.Minute
	}
	if r.cfg.ProbationProbes <= 0 {
		r.cfg.ProbationProbes = 2
	}
	if r.cfg.BudgetFloor <= 0 {
		r.cfg.BudgetFloor = 2 * time.Millisecond
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	r.rng = rand.New(rand.NewSource(seed))
	for i, reps := range cfg.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", i)
		}
		g := &group{}
		for j, b := range reps {
			if b == nil {
				return nil, fmt.Errorf("router: shard %d replica %d is nil", i, j)
			}
			g.replicas = append(g.replicas, &replica{backend: b})
		}
		r.groups = append(r.groups, g)
	}
	r.stats = newStatsTable(len(r.groups))
	return r, nil
}

// NumShards returns the fleet's shard count.
func (r *Router) NumShards() int { return len(r.groups) }

// Replicas returns shard i's replica count.
func (r *Router) Replicas(i int) int { return len(r.groups[i].replicas) }

// Merged is one routed query's answer plus its serving metadata.
type Merged struct {
	// Results is the global top-k in rank order (nil when nothing
	// matched).
	Results []query.ResultWithSnippet
	// ShardsOK of ShardsTotal shards contributed; ShardsOK <
	// ShardsTotal marks a partial (degraded) answer.
	ShardsOK, ShardsTotal int
	// FailedShards lists the shard indices that did not answer.
	FailedShards []int
	// Docs, States and Gen aggregate the responding shards' snapshot
	// metadata (Gen is the newest responding generation).
	Docs, States int
	Gen          int64
	// Duplicates counts candidates dropped because another shard
	// already returned the same (URL, state) — nonzero only on
	// overlapping (misconfigured) shards.
	Duplicates int
}

// Search fans q out to every shard, applies the global idf correction,
// and returns the merged top-k. k <= 0 returns all results. The error
// is non-nil when no shard answered, or when any shard failed and
// Config.Partial is off.
func (r *Router) Search(ctx context.Context, q string, k int) (*Merged, error) {
	tel := obs.From(ctx)
	tel.Counter("router.fanout.queries").Inc()
	ctx, sp := obs.StartSpan(ctx, obs.SpanRouterFanout, obs.A("q", q))
	start := time.Now()
	m, err := r.search(ctx, q, k, tel)
	tel.Histogram("router.fanout.latency").Observe(time.Since(start).Seconds())
	if m != nil {
		sp.SetAttr("shards_ok", fmt.Sprintf("%d/%d", m.ShardsOK, m.ShardsTotal))
		sp.SetAttr("results", strconv.Itoa(len(m.Results)))
	}
	sp.End(err)
	return m, err
}

func (r *Router) search(ctx context.Context, q string, k int, tel *obs.Telemetry) (*Merged, error) {
	terms := query.Parse(q)
	n := len(r.groups)
	merged := &Merged{ShardsTotal: n}
	if len(terms) == 0 {
		// Nothing to ship: an empty conjunction matches nothing on any
		// shard, so the fleet is vacuously complete.
		merged.ShardsOK = n
		return merged, nil
	}

	// When the table knows every term on every shard, the global df and
	// N travel with the query and each shard cuts to its k best. Each
	// response then proves or refutes the statistics its cut was made
	// under: on a contradiction (a shard swapped snapshots, or replicas
	// of one shard serve different ones) the terms are forgotten and the
	// query is fanned out once more with no hint, which is always exact.
	var expect []*query.ShardResult
	var hint query.Hint
	if k > 0 {
		if expect = r.stats.expect(terms); expect != nil {
			hint = hintFor(expect, k)
		}
	}
	outs := r.fanOut(ctx, q, terms, hint, tel)
	switch {
	case hint.K > 0 && refuted(outs, expect):
		tel.Counter("router.stats.stale").Inc()
		r.stats.forget(terms)
		hint = query.Hint{}
		outs = r.fanOut(ctx, q, terms, hint, tel)
	case hint.K > 0:
		tel.Counter("router.stats.hit").Inc()
	case k > 0:
		tel.Counter("router.stats.miss").Inc()
	}

	// responses is what enters the fold, one slot per shard. Under a
	// verified hint a failed shard's slot holds its remembered
	// statistics with no candidates — the idf the responders cut under —
	// so a degraded answer is the healthy one minus that shard's
	// documents, scores unchanged; with no hint it stays nil and the idf
	// is summed over the responders.
	responses := make([]*query.ShardResult, n)
	var firstErr error
	for i, o := range outs {
		if o.err != nil {
			merged.FailedShards = append(merged.FailedShards, i)
			if firstErr == nil {
				firstErr = fmt.Errorf("shard %d: %w", i, o.err)
			}
			if hint.K > 0 {
				responses[i] = expect[i]
			}
			continue
		}
		responses[i] = o.res
		merged.ShardsOK++
		merged.Docs += o.res.Docs
		merged.States += o.res.States
		merged.Gen = max(merged.Gen, o.res.Gen)
	}
	if merged.ShardsOK == 0 {
		return merged, fmt.Errorf("router: no shard answered: %w", firstErr)
	}
	if merged.ShardsOK < n {
		tel.Counter("router.fanout.partial").Inc()
		if !r.cfg.Partial {
			return merged, fmt.Errorf("router: %d/%d shards answered and partial results are disabled: %w",
				merged.ShardsOK, n, firstErr)
		}
	}
	if hint.K == 0 {
		r.stats.learn(terms, responses)
	}

	merged.Duplicates = dropDuplicates(responses)
	if merged.Duplicates > 0 {
		tel.Counter("router.fanout.dup_docs").Add(int64(merged.Duplicates))
	}
	merged.Results = query.Fold(terms, r.w, responses, k)
	return merged, nil
}

// outcome is one shard's result of one fan-out.
type outcome struct {
	res *query.ShardResult
	err error
}

// fanOut calls every shard concurrently and waits for all of them.
func (r *Router) fanOut(ctx context.Context, q string, terms []string, hint query.Hint, tel *obs.Telemetry) []outcome {
	outs := make([]outcome, len(r.groups))
	var wg sync.WaitGroup
	for i := range r.groups {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i].res, outs[i].err = r.callShard(ctx, i, q, terms, hint, tel)
		}(i)
	}
	wg.Wait()
	return outs
}

// dropDuplicates removes every candidate whose (URL, state) an earlier
// candidate already carries — in an earlier shard's response or earlier
// in the same one — and returns how many it dropped; the first shard
// wins. Like checkShardResult this is validation of bytes from the
// network (overlapping shards are a wiring error, a repeated candidate a
// broken shard), so it runs here, before the fold, and the in-process
// Broker never pays for a seen-set. A response that loses candidates is
// replaced in responses by a trimmed copy: backends own what they
// return.
func dropDuplicates(responses []*query.ShardResult) int {
	type docKey struct {
		url   string
		state int
	}
	total := 0
	for _, res := range responses {
		if res != nil {
			total += len(res.Candidates)
		}
	}
	seen := make(map[docKey]struct{}, total)
	dups := 0
	for i, res := range responses {
		if res == nil {
			continue
		}
		var kept []query.ShardCandidate // allocated at this response's first duplicate
		for j, c := range res.Candidates {
			key := docKey{url: c.URL, state: c.State}
			if _, dup := seen[key]; dup {
				if kept == nil {
					kept = append(make([]query.ShardCandidate, 0, len(res.Candidates)-1), res.Candidates[:j]...)
				}
				dups++
				continue
			}
			seen[key] = struct{}{}
			if kept != nil {
				kept = append(kept, c)
			}
		}
		if kept != nil {
			trimmed := *res
			trimmed.Candidates = kept
			responses[i] = &trimmed
		}
	}
	return dups
}

// callShard runs one shard's call: an attempt at a P2C-picked replica,
// immediate failover to the next replica when an attempt errors, and
// the shard deadline — ShardTimeout clamped to the caller's remaining
// budget — over it all. Every outcome feeds the replica health EWMAs.
func (r *Router) callShard(ctx context.Context, shard int, q string, terms []string, hint query.Hint, tel *obs.Telemetry) (*query.ShardResult, error) {
	g := r.groups[shard]

	remaining, hasBudget := r.budgetRemaining(ctx)
	if hasBudget && remaining <= r.cfg.BudgetFloor {
		// The caller's budget is already gone: executing would produce
		// an answer nobody is waiting for.
		tel.Counter("router.fanout.budget_rejected").Inc()
		return nil, ErrBudgetExhausted
	}
	timeout := r.cfg.ShardTimeout
	if hasBudget && (timeout == 0 || remaining < timeout) {
		timeout = remaining
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	_, sp := obs.StartSpan(ctx, obs.SpanRouterShard, obs.A("shard", strconv.Itoa(shard)))
	start := r.clock.Now()

	// The deadline rides the injectable clock, not context.WithTimeout,
	// so virtual-time tests can script it exactly. The sleep returns
	// early (with an error) when the call ends.
	timeoutc := make(chan struct{}, 1)
	if timeout > 0 {
		go func() {
			if r.clock.Sleep(cctx, timeout) == nil {
				timeoutc <- struct{}{}
			}
		}()
	}

	type attempt struct {
		res *query.ShardResult
		err error
	}
	// Buffered so an attempt abandoned at the deadline never blocks.
	resc := make(chan attempt, 1)
	used := make([]bool, len(g.replicas))
	var lastErr error
	for {
		ri := r.pick(g, used, tel)
		if ri < 0 {
			sp.End(lastErr)
			return nil, lastErr
		}
		used[ri] = true
		rep := g.replicas[ri]
		rep.outstanding.Add(1)
		go func() {
			defer rep.outstanding.Add(-1)
			res, err := rep.backend.ShardSearch(cctx, q, hint)
			if err == nil {
				err = checkShardResult(res, terms, hint)
			}
			resc <- attempt{res: res, err: err}
		}()
		select {
		case a := <-resc:
			if a.err == nil {
				r.record(rep, 0, tel)
				lat := r.clock.Now().Sub(start)
				tel.Histogram("router.shard.latency").Observe(lat.Seconds())
				tel.Histogram("router.shard.latency." + strconv.Itoa(shard)).Observe(lat.Seconds())
				sp.End(nil)
				return a.res, nil
			}
			// Fail over: a dead replica must not kill the shard while
			// unused siblings remain.
			r.record(rep, failHard, tel)
			lastErr = a.err
			tel.Counter("router.fanout.shard_errors").Inc()
		case <-timeoutc:
			r.record(rep, failHard, tel)
			tel.Counter("router.fanout.shard_errors").Inc()
			sp.End(ErrShardTimeout)
			return nil, ErrShardTimeout
		case <-cctx.Done():
			sp.End(cctx.Err())
			return nil, cctx.Err()
		}
	}
}

// pick chooses a replica among the not-yet-used, not-quarantined ones
// by power of two choices: sample two distinct candidates (seeded
// PRNG), take the one with the lower effective load — outstanding
// requests plus the failure EWMA scaled by healthPenalty, so a sick
// replica sheds load before it is sick enough to eject — breaking ties
// toward the lower index. When every free replica is quarantined the
// pick falls back to them anyway (last resort: guessing beats refusing
// when nothing healthy remains, and it keeps a probe-less fleet live).
// Returns -1 when every replica was already attempted.
func (r *Router) pick(g *group, used []bool, tel *obs.Telemetry) int {
	r.mu.Lock()
	free := make([]int, 0, len(g.replicas))
	for i := range g.replicas {
		if !used[i] && !g.replicas[i].quarantined {
			free = append(free, i)
		}
	}
	lastResort := false
	if len(free) == 0 {
		for i := range g.replicas {
			if !used[i] {
				free = append(free, i)
			}
		}
		lastResort = len(free) > 0
	}
	if len(free) == 0 {
		r.mu.Unlock()
		return -1
	}
	if lastResort {
		tel.Counter("router.replica.last_resort").Inc()
	}
	if len(free) == 1 {
		r.mu.Unlock()
		return free[0]
	}
	ai := r.rng.Intn(len(free))
	bi := (ai + 1 + r.rng.Intn(len(free)-1)) % len(free)
	a, b := free[ai], free[bi]
	la := float64(g.replicas[a].outstanding.Load()) + g.replicas[a].health*healthPenalty
	lb := float64(g.replicas[b].outstanding.Load()) + g.replicas[b].health*healthPenalty
	r.mu.Unlock()
	if lb < la || (lb == la && b < a) {
		return b
	}
	return a
}

// checkShardResult validates a shard response against the routed query
// before it may enter the merge: aligned vectors, finite scores,
// plausible counts, and no more candidates than the hint's cut allows.
// Responses arrive from the network, so nothing here is trusted — a
// violation fails the attempt (triggering failover), it never panics
// the router.
func checkShardResult(res *query.ShardResult, terms []string, hint query.Hint) error {
	const maxURLLen = 8 << 10
	if res == nil {
		return errors.New("router: nil shard response")
	}
	if len(res.Terms) != len(terms) {
		return fmt.Errorf("router: shard answered %d terms, query has %d", len(res.Terms), len(terms))
	}
	for i := range terms {
		if res.Terms[i] != terms[i] {
			return fmt.Errorf("router: shard term %d = %q, query has %q", i, res.Terms[i], terms[i])
		}
	}
	if len(res.DF) != len(terms) {
		return fmt.Errorf("router: df vector has %d entries, query has %d terms", len(res.DF), len(terms))
	}
	// df and TotalStates are remembered and summed into later hints, so
	// they are bounded above as well: a shard holds far fewer than 2^31
	// states, and sums of bounded counts cannot wrap.
	for i, df := range res.DF {
		if df < 0 || df > math.MaxInt32 {
			return fmt.Errorf("router: df[%d] = %d out of range", i, df)
		}
	}
	if res.TotalStates < 0 || res.TotalStates > math.MaxInt32 || res.Docs < 0 || res.States < 0 || res.Gen < 0 {
		return fmt.Errorf("router: collection stats out of range (states %d, docs %d/%d, gen %d)",
			res.TotalStates, res.Docs, res.States, res.Gen)
	}
	if hint.K > 0 && len(res.Candidates) > hint.K {
		return fmt.Errorf("router: %d candidates answer a cut to %d", len(res.Candidates), hint.K)
	}
	for i := range res.Candidates {
		c := &res.Candidates[i]
		if c.URL == "" || len(c.URL) > maxURLLen {
			return fmt.Errorf("router: candidate %d has bad URL (%d bytes)", i, len(c.URL))
		}
		if c.State < 0 {
			return fmt.Errorf("router: candidate %d has negative state %d", i, c.State)
		}
		if len(c.TFs) != len(terms) {
			return fmt.Errorf("router: candidate %d has %d tfs, query has %d terms", i, len(c.TFs), len(terms))
		}
		if math.IsNaN(c.Base) || math.IsInf(c.Base, 0) {
			return fmt.Errorf("router: candidate %d has non-finite base", i)
		}
		for t, tf := range c.TFs {
			// eq. 5.1 bounds tf to [0, 1]; a larger one can fold to an
			// infinite score, which no JSON encoder accepts.
			if math.IsNaN(tf) || tf < 0 || tf > 1 {
				return fmt.Errorf("router: candidate %d has bad tf[%d]", i, t)
			}
		}
	}
	return nil
}
