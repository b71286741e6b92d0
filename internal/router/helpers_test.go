package router

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/query"
)

// testClock is a manually advanced clock: Sleep blocks until Advance
// moves virtual time past the deadline (or the context ends). Unlike
// fetch.VirtualClock — whose sleeps auto-advance, which would fire the
// hedge and deadline timers instantly — this clock lets a test hold
// several concurrent timers and release exactly the one whose moment
// has come, so hedge schedules can be asserted to the exact virtual
// timestamp.
type testClock struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*clockWaiter
}

type clockWaiter struct {
	deadline time.Time
	ch       chan struct{}
}

func newTestClock() *testClock {
	return &testClock{now: time.Unix(0, 0)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *testClock) Sleep(ctx context.Context, d time.Duration) error {
	c.mu.Lock()
	deadline := c.now.Add(d)
	if !deadline.After(c.now) {
		c.mu.Unlock()
		return ctx.Err()
	}
	w := &clockWaiter{deadline: deadline, ch: make(chan struct{})}
	c.waiters = append(c.waiters, w)
	c.mu.Unlock()
	select {
	case <-w.ch:
		return nil
	case <-ctx.Done():
		c.mu.Lock()
		for i, o := range c.waiters {
			if o == w {
				c.waiters = append(c.waiters[:i], c.waiters[i+1:]...)
				break
			}
		}
		c.mu.Unlock()
		return ctx.Err()
	}
}

// Advance moves virtual time forward and wakes every timer whose
// deadline has passed.
func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	var fire []*clockWaiter
	keep := c.waiters[:0]
	for _, w := range c.waiters {
		if !w.deadline.After(c.now) {
			fire = append(fire, w)
		} else {
			keep = append(keep, w)
		}
	}
	c.waiters = keep
	c.mu.Unlock()
	for _, w := range fire {
		close(w.ch)
	}
}

func (c *testClock) waiterCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.waiters)
}

// awaitWaiters polls until exactly n timers are registered (and stay
// registered long enough to observe), so Advance releases precisely the
// timers the test means to release.
func (c *testClock) awaitWaiters(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if c.waiterCount() == n {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %d clock waiters (have %d)", n, c.waiterCount())
}

// arrival records when (in virtual time) a scripted group saw a call.
type arrival struct {
	replica int
	at      time.Time
}

// scriptedGroup scripts one shard's replicas by ARRIVAL ORDER, not
// replica identity: the first call runs script[0], the second script[1],
// and so on (the last script entry repeats). That makes tests
// independent of which replica the seeded P2C pick chooses first.
type scriptedGroup struct {
	clock interface{ Now() time.Time }

	mu       sync.Mutex
	arrivals []arrival
	script   []func(ctx context.Context) (*query.ShardResult, error)
}

func (g *scriptedGroup) replicaBackend(id int) Backend {
	return &scriptedReplica{g: g, id: id}
}

func (g *scriptedGroup) backends(n int) []Backend {
	out := make([]Backend, n)
	for i := range out {
		out[i] = g.replicaBackend(i)
	}
	return out
}

func (g *scriptedGroup) arrivalTimes() []arrival {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]arrival(nil), g.arrivals...)
}

type scriptedReplica struct {
	g  *scriptedGroup
	id int
}

func (r *scriptedReplica) ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error) {
	g := r.g
	g.mu.Lock()
	i := len(g.arrivals)
	g.arrivals = append(g.arrivals, arrival{replica: r.id, at: g.clock.Now()})
	if i >= len(g.script) {
		i = len(g.script) - 1
	}
	fn := g.script[i]
	g.mu.Unlock()
	return fn(ctx)
}

// blockUntilCanceled is a script step: the replica hangs until the
// router gives up on it.
func blockUntilCanceled(ctx context.Context) (*query.ShardResult, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// canned builds a well-formed ShardResult for terms with the given
// candidates; df counts how many candidates carry each term.
func canned(terms []string, states int, cands ...query.ShardCandidate) *query.ShardResult {
	res := &query.ShardResult{
		Terms:       append([]string(nil), terms...),
		TotalStates: states,
		DF:          make([]int, len(terms)),
		Gen:         1,
		Docs:        len(cands),
		States:      states,
		Candidates:  append([]query.ShardCandidate(nil), cands...),
	}
	for _, c := range cands {
		for i := range terms {
			if i < len(c.TFs) && c.TFs[i] > 0 {
				res.DF[i]++
			}
		}
	}
	return res
}

func cand(url string, state int, base float64, tfs ...float64) query.ShardCandidate {
	return query.ShardCandidate{URL: url, State: state, Base: base, TFs: tfs, Snippet: "[" + url + "]"}
}

// staticBackend always returns the same response.
type staticBackend struct {
	res *query.ShardResult
	err error

	mu    sync.Mutex
	calls int
}

func (b *staticBackend) ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	if b.err != nil {
		return nil, b.err
	}
	// Hand out a deep-enough copy: the merge may be concurrent with
	// other queries reading the same backend.
	cp := *b.res
	return &cp, b.err
}

func (b *staticBackend) callCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

var errReplicaDown = errors.New("replica down")

// mustSearch fails the test on error.
func mustSearch(t *testing.T, r *Router, ctx context.Context, q string, k int) *Merged {
	t.Helper()
	m, err := r.Search(ctx, q, k)
	if err != nil {
		t.Fatalf("Search(%q): %v", q, err)
	}
	return m
}

// resultKey labels a result for duplicate checks.
func resultKey(r query.ResultWithSnippet) string {
	return fmt.Sprintf("%s#%d", r.URL, r.State)
}
