// Package admission bounds how many requests a serving tier answers at
// once. A Limiter is a counting semaphore with telemetry: a request that
// finds every slot taken is refused at once with ErrSaturated, which the
// /search front answers with 429, so saturation costs an admission
// decision and never an evaluation.
//
// The limit is the operator's -max-inflight and does not adapt, and
// nothing waits for a slot: on the 10 000-video fleet a limit adapted to
// latency read the mix of cheap and costly queries as congestion and cut
// capacity 23-fold, and a wait queue raised p99 under overload
// (EXPERIMENTS.md "Serving capacity").
package admission

import (
	"context"
	"errors"
	"sync"

	"ajaxcrawl/internal/obs"
)

// ErrSaturated is returned when every slot is taken. Callers shed the
// request with 429.
var ErrSaturated = errors.New("admission: saturated")

// Config parameterizes a Limiter.
type Config struct {
	// Max is the concurrency limit (default 64).
	Max int
	// Initial and Min are unused; they stay while benchmark/ sets them
	// (ROADMAP item 1).
	Initial, Min int
	// Tel receives the admission.* metrics (nil = none).
	Tel *obs.Telemetry
}

// Limiter is a fixed concurrency limit. Use New.
type Limiter struct {
	max int
	tel *obs.Telemetry

	mu       sync.Mutex
	inflight int
}

// New returns a ready Limiter.
func New(cfg Config) *Limiter {
	if cfg.Max <= 0 {
		cfg.Max = 64
	}
	return &Limiter{max: cfg.Max, tel: cfg.Tel}
}

// Token is one admitted request's slot: Release it when the request
// ends.
type Token struct {
	l    *Limiter
	done bool
}

// Acquire takes a free slot or fails at once with ErrSaturated. It never
// waits, so ctx is not consulted.
func (l *Limiter) Acquire(ctx context.Context) (*Token, error) {
	l.mu.Lock()
	if l.inflight >= l.max {
		l.mu.Unlock()
		l.tel.Counter("admission.shed").Inc()
		return nil, ErrSaturated
	}
	l.inflight++
	l.tel.Gauge("admission.inflight").Set(int64(l.inflight))
	l.mu.Unlock()
	l.tel.Counter("admission.admitted").Inc()
	return &Token{l: l}, nil
}

// Release frees the token's slot. It is nil-safe, and a second call
// does nothing.
func (t *Token) Release() {
	if t == nil || t.done {
		return
	}
	t.done = true
	l := t.l
	l.mu.Lock()
	l.inflight--
	l.tel.Gauge("admission.inflight").Set(int64(l.inflight))
	l.mu.Unlock()
}
