package router

import (
	"context"
	"time"

	"ajaxcrawl/internal/obs"
)

// Self-healing replica management. Every attempt outcome folds into a
// per-replica failure EWMA (success 0, error or timeout 1); the EWMA
// biases the P2C pick away from sick replicas
// long before ejection, and crossing EjectThreshold quarantines the
// replica outright — queries stop discovering a dead backend the hard
// way on every first attempt. Quarantined replicas re-enter through
// probation: once their backoff elapses, background /healthz probes
// (ProbeSweep / HealthLoop, on the injectable clock) must succeed
// ProbationProbes times in a row; a failed probe doubles the backoff
// up to QuarantineMax. Everything is visible in the router.replica.*
// metrics family, and a wholly quarantined group is still attempted as
// a last resort — guessing beats refusing when nothing healthy is left.

// healthBeta is the failure-EWMA smoothing factor: one failure moves a
// healthy replica to 0.3, five in a row cross the default threshold.
const healthBeta = 0.3

// healthPenalty converts a replica's failure EWMA into equivalent
// outstanding requests for the P2C load comparison: a replica at EWMA
// 0.5 competes as if it carried 2 extra requests.
const healthPenalty = 4

// failHard is record's weight of an error or a shard timeout.
const failHard = 1.0

// Prober is implemented by backends that can answer an active health
// probe. Backends without one (in-process shards) are assumed healthy
// once their quarantine backoff elapses.
type Prober interface {
	// Probe checks the backend's health endpoint; nil means healthy.
	Probe(ctx context.Context) error
}

// record folds one attempt outcome into rep's failure EWMA and ejects
// the replica into quarantine when it crosses the threshold.
func (r *Router) record(rep *replica, fail float64, tel *obs.Telemetry) {
	r.mu.Lock()
	rep.health = (1-healthBeta)*rep.health + healthBeta*fail
	eject := !rep.quarantined && rep.health >= r.cfg.EjectThreshold
	if eject {
		rep.quarantined = true
		rep.probeOK = 0
		if rep.backoff <= 0 {
			rep.backoff = r.cfg.QuarantineBase
		} else if rep.backoff < r.cfg.QuarantineMax {
			rep.backoff *= 2
			rep.backoff = min(rep.backoff, r.cfg.QuarantineMax)
		}
		rep.quarantineUntil = r.clock.Now().Add(rep.backoff)
	}
	quarantined := r.quarantinedLocked()
	r.mu.Unlock()
	if eject {
		tel.Counter("router.replica.ejected").Inc()
		tel.Gauge("router.replica.quarantined").Set(int64(quarantined))
	}
}

// quarantinedLocked counts quarantined replicas fleet-wide.
func (r *Router) quarantinedLocked() int {
	n := 0
	for _, g := range r.groups {
		for _, rep := range g.replicas {
			if rep.quarantined {
				n++
			}
		}
	}
	return n
}

// HealthyReplicas returns shard i's non-quarantined replica count.
func (r *Router) HealthyReplicas(i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, rep := range r.groups[i].replicas {
		if !rep.quarantined {
			n++
		}
	}
	return n
}

// ProbeSweep probes every quarantined replica whose backoff has
// elapsed. A successful probe advances probation; ProbationProbes
// consecutive successes readmit the replica with a clean health score.
// A failed probe restarts probation and doubles the backoff. Telemetry
// rides the context (obs.With).
func (r *Router) ProbeSweep(ctx context.Context) {
	tel := obs.From(ctx)
	now := r.clock.Now()
	type cand struct {
		rep   *replica
		shard int
	}
	var due []cand
	r.mu.Lock()
	for si, g := range r.groups {
		for _, rep := range g.replicas {
			if rep.quarantined && !now.Before(rep.quarantineUntil) {
				due = append(due, cand{rep: rep, shard: si})
			}
		}
	}
	r.mu.Unlock()

	for _, c := range due {
		tel.Counter("router.replica.probes").Inc()
		err := probeBackend(ctx, c.rep.backend)
		r.mu.Lock()
		if err != nil {
			c.rep.probeOK = 0
			if c.rep.backoff < r.cfg.QuarantineMax {
				c.rep.backoff *= 2
				c.rep.backoff = min(c.rep.backoff, r.cfg.QuarantineMax)
			}
			c.rep.quarantineUntil = r.clock.Now().Add(c.rep.backoff)
			r.mu.Unlock()
			tel.Counter("router.replica.probe_failures").Inc()
			continue
		}
		c.rep.probeOK++
		readmit := c.rep.probeOK >= r.cfg.ProbationProbes
		if readmit {
			c.rep.quarantined = false
			c.rep.health = 0
			c.rep.backoff = 0
			c.rep.probeOK = 0
		}
		quarantined := r.quarantinedLocked()
		r.mu.Unlock()
		if readmit {
			tel.Counter("router.replica.readmitted").Inc()
			tel.Gauge("router.replica.quarantined").Set(int64(quarantined))
		}
	}
}

// HealthLoop runs ProbeSweep every interval on the router's clock until
// ctx ends — the daemon's background recovery path.
func (r *Router) HealthLoop(ctx context.Context, interval time.Duration) {
	for {
		if r.clock.Sleep(ctx, interval) != nil {
			return
		}
		r.ProbeSweep(ctx)
	}
}

func probeBackend(ctx context.Context, b Backend) error {
	if p, ok := b.(Prober); ok {
		return p.Probe(ctx)
	}
	return nil
}
