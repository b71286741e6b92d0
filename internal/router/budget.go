package router

import (
	"context"
	"errors"
	"time"

	"ajaxcrawl/internal/fetch"
)

// Deadline-budget propagation. context.WithTimeout deadlines are wall
// time, which virtual-clock tests cannot script; the fleet instead
// threads an explicit budget — a deadline measured on the injectable
// fetch.Clock — through the context. The /search front (serve.Front)
// sets it to the request's deadline (its own timeout clamped to any
// budget the caller propagated via X-Ajaxserve-Budget-Ms), every shard
// call clamps its deadline to what remains, and HTTPBackend forwards
// the remainder to the shard server, which fast-rejects when the floor
// is gone. The result: no tier burns CPU on work the caller has
// already abandoned, and the whole schedule is deterministic under
// virtual time.

// ErrBudgetExhausted means the caller's remaining deadline budget was
// below the floor before the work even started — the query was
// abandoned upstream, so the call is rejected up front rather than
// executed into a void.
var ErrBudgetExhausted = errors.New("router: deadline budget exhausted")

type budgetKey struct{}

type budgetVal struct {
	deadline time.Time
	clock    fetch.Clock
}

// WithBudget attaches a deadline budget to ctx: the work must finish by
// deadline as measured on clock. It does not cancel the context — the
// budget is advisory for clamping and fast-rejects; cancellation stays
// with the usual context machinery.
func WithBudget(ctx context.Context, deadline time.Time, clock fetch.Clock) context.Context {
	if clock == nil {
		clock = fetch.RealClock{}
	}
	return context.WithValue(ctx, budgetKey{}, budgetVal{deadline: deadline, clock: clock})
}

// BudgetRemaining reports the budget left on ctx's clock. ok is false
// when no budget was attached.
func BudgetRemaining(ctx context.Context) (time.Duration, bool) {
	v, ok := ctx.Value(budgetKey{}).(budgetVal)
	if !ok {
		return 0, false
	}
	return v.deadline.Sub(v.clock.Now()), true
}

// budgetRemaining resolves the effective remaining budget for a shard
// call: an explicit clock budget wins; otherwise a plain context
// deadline (wall clock) is honored so library callers that only use
// context.WithTimeout still get clamped fan-out deadlines.
func (r *Router) budgetRemaining(ctx context.Context) (time.Duration, bool) {
	if d, ok := BudgetRemaining(ctx); ok {
		return d, true
	}
	if dl, ok := ctx.Deadline(); ok {
		return time.Until(dl), true
	}
	return 0, false
}
