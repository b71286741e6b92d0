package router

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
)

// TestShardStallPartialResult stalls every replica of one shard past
// the shard deadline (in virtual time): the query must come back
// degraded — not hung, not failed — with the stalled shard reported and
// the partial answer counted.
func TestShardStallPartialResult(t *testing.T) {
	terms := []string{"video"}
	good := canned(terms, 5, cand("http://a", 0, 1, 1))
	clock := newTestClock()
	stalled := &scriptedGroup{clock: clock}
	entered := make(chan struct{}, 2)
	stalled.script = []func(ctx context.Context) (*query.ShardResult, error){
		func(ctx context.Context) (*query.ShardResult, error) {
			entered <- struct{}{}
			return blockUntilCanceled(ctx)
		},
	}
	retired := make(chan struct{}, 3)
	fast := func(res *query.ShardResult) []Backend {
		return []Backend{retiringBackend{Backend: &staticBackend{res: res}, retired: retired}}
	}

	topo := [][]Backend{
		fast(good),
		fast(canned(terms, 5, cand("http://b", 0, 0.5, 1))),
		fast(canned(terms, 5, cand("http://c", 0, 0.25, 1))),
		stalled.backends(2),
	}
	r, err := New(Config{
		Shards:       topo,
		ShardTimeout: time.Second,
		Partial:      true,
		Clock:        clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(nil, nil)
	ctx := obs.With(context.Background(), tel)

	type out struct {
		m   *Merged
		err error
	}
	done := make(chan out, 1)
	go func() {
		m, err := r.Search(ctx, "video", 10)
		done <- out{m, err}
	}()

	// Virtual time may move only once every fast shard's answer has been
	// taken (its call context ends when callShard returns) and the stalled
	// replica has been entered: advancing earlier can expire a fast
	// shard's deadline before its answer is read. From then on only the
	// stalled shard's timer matters; keep advancing until it has
	// registered and fired.
	for i := 0; i < 3; i++ {
		<-retired
	}
	<-entered
	var o out
	for fired := false; !fired; {
		select {
		case o = <-done:
			fired = true
		case <-time.After(time.Millisecond):
			clock.Advance(time.Second)
		}
	}
	if o.err != nil {
		t.Fatalf("degraded query failed outright: %v", o.err)
	}
	if o.m.ShardsOK != 3 || o.m.ShardsTotal != 4 {
		t.Fatalf("shards = %d/%d, want 3/4", o.m.ShardsOK, o.m.ShardsTotal)
	}
	if len(o.m.FailedShards) != 1 || o.m.FailedShards[0] != 3 {
		t.Fatalf("FailedShards = %v, want [3]", o.m.FailedShards)
	}
	if len(o.m.Results) != 3 {
		t.Fatalf("results = %d, want the 3 healthy shards' docs", len(o.m.Results))
	}
	if got := tel.Counter("router.fanout.partial").Value(); got != 1 {
		t.Fatalf("router.fanout.partial = %d, want 1", got)
	}
	if got := tel.Counter("router.fanout.shard_errors").Value(); got != 1 {
		t.Fatalf("router.fanout.shard_errors = %d, want 1", got)
	}
}

// retiringBackend answers at once and reports on retired when the router
// is done with the call, i.e. when the call's context ends.
type retiringBackend struct {
	Backend
	retired chan<- struct{}
}

func (b retiringBackend) ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error) {
	res, err := b.Backend.ShardSearch(ctx, q, hint)
	go func() {
		<-ctx.Done()
		b.retired <- struct{}{}
	}()
	return res, err
}

// TestReplicaDiesMidQueryFailoverCompletes kills the primary replica
// mid-flight (it errors after 30ms of virtual time); failover to the
// sibling must still produce a COMPLETE result — no partial, no hedge.
func TestReplicaDiesMidQueryFailoverCompletes(t *testing.T) {
	terms := []string{"video"}
	good := canned(terms, 5, cand("http://a", 0, 1, 1))
	clock := newTestClock()
	g := &scriptedGroup{clock: clock}
	g.script = []func(ctx context.Context) (*query.ShardResult, error){
		func(ctx context.Context) (*query.ShardResult, error) {
			if err := clock.Sleep(ctx, 30*time.Millisecond); err != nil {
				return nil, err
			}
			return nil, errReplicaDown
		},
		func(ctx context.Context) (*query.ShardResult, error) { return good, nil },
	}
	r, err := New(Config{Shards: [][]Backend{g.backends(2)}, Clock: clock, Partial: false})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan *Merged, 1)
	go func() { done <- mustSearch(t, r, context.Background(), "video", 10) }()
	clock.awaitWaiters(t, 1) // the dying replica's 30ms fuse
	clock.Advance(30 * time.Millisecond)
	m := <-done
	if m.ShardsOK != 1 || m.ShardsTotal != 1 {
		t.Fatalf("shards = %d/%d, want 1/1 (failover, not partial)", m.ShardsOK, m.ShardsTotal)
	}
	if len(m.Results) != 1 || m.Results[0].URL != "http://a" {
		t.Fatalf("results = %+v", m.Results)
	}
	if m.Hedges != 0 {
		t.Fatalf("failover counted as hedge: %d", m.Hedges)
	}
	arr := g.arrivalTimes()
	if len(arr) != 2 || arr[1].at.Sub(time.Unix(0, 0)) != 30*time.Millisecond {
		t.Fatalf("failover arrivals = %+v, want second immediately at t=30ms", arr)
	}
}

// TestRouterHotSwapRace hammers a LocalBackend fleet with queries while
// every shard's query.Server hot-swaps generations underneath it — the
// -race build must stay silent and every answer must be internally
// consistent (a complete fleet, results from SOME coherent generation).
func TestRouterHotSwapRace(t *testing.T) {
	graphs, pr := crawlCorpus(t, 8, 13)
	const shards = 2
	dirs := publishPartitioned(t, graphs, pr, shards)
	// Every other swap installs a smaller corpus, so hints are refuted
	// and the statistics table forgets and relearns while the queries fly.
	altDirs := publishPartitioned(t, graphs[:6], pr, shards)
	servers := make([]*query.Server, shards)
	topo := make([][]Backend, shards)
	for i, dir := range dirs {
		snap, _, err := serve.LoadSnapshot(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = query.NewServer(snap, query.CacheOptions{})
		topo[i] = []Backend{LocalBackend{QS: servers[i]}}
	}
	rt, err := New(Config{Shards: topo})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	ctx := obs.With(context.Background(), obs.New(reg, nil))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				m, err := rt.Search(ctx, "music love", 5)
				if err != nil {
					t.Errorf("query %d: %v", i, err)
					return
				}
				if m.ShardsOK != shards {
					t.Errorf("query %d: %d/%d shards", i, m.ShardsOK, m.ShardsTotal)
					return
				}
			}
		}()
	}
	// Swap every shard's snapshot 25 times while the queries fly. Each
	// swap installs a freshly loaded snapshot: a live snapshot must never
	// be mutated, so reuse is not an option.
	for gen := 0; gen < 25; gen++ {
		for i := range dirs {
			dir := dirs[i]
			if gen%2 == 0 {
				dir = altDirs[i]
			}
			snap, _, err := serve.LoadSnapshot(dir, nil)
			if err != nil {
				t.Fatal(err)
			}
			servers[i].Swap(context.Background(), snap)
		}
	}
	close(stop)
	wg.Wait()
	if reg.Counter("router.stats.hit").Value()+reg.Counter("router.stats.stale").Value() == 0 {
		t.Fatal("no query went out hinted: the race test ran without the statistics table")
	}
}

// TestRouterHTTP502WhenFleetDown: the router is a gateway; a fleet with
// nothing answering must say 502 (with the 0/N tally), not 500 or a
// hang.
func TestRouterHTTP502WhenFleetDown(t *testing.T) {
	bad := &staticBackend{err: errReplicaDown}
	rt, err := New(Config{Shards: [][]Backend{{bad}, {bad}}, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	rs := NewServer(rt, ServerConfig{}, obs.New(nil, nil))
	rts := httptest.NewServer(rs.Handler())
	defer rts.Close()
	resp, body := httpGet(t, rts.URL+"/search?q=video")
	if resp.StatusCode != 502 {
		t.Fatalf("status %d, want 502: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(HeaderShards); got != "0/2" {
		t.Fatalf("%s = %q, want 0/2", HeaderShards, got)
	}
}

// TestRouterHTTPValidation pins the request-contract parity with
// ajaxserve: missing q and malformed k are 400s, k above MaxK clamps.
func TestRouterHTTPValidation(t *testing.T) {
	terms := []string{"video"}
	b := &staticBackend{res: canned(terms, 5, cand("http://a", 0, 1, 1))}
	rt, err := New(Config{Shards: [][]Backend{{b}}})
	if err != nil {
		t.Fatal(err)
	}
	rs := NewServer(rt, ServerConfig{MaxK: 5}, obs.New(nil, nil))
	rts := httptest.NewServer(rs.Handler())
	defer rts.Close()
	for _, bad := range []string{"/search", "/search?q=", "/search?q=x&k=abc", "/search?q=x&k=0", "/search?q=x&k=-3"} {
		resp, _ := httpGet(t, rts.URL+bad)
		if resp.StatusCode != 400 {
			t.Fatalf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	resp, body := httpGet(t, rts.URL+"/search?q=video&k=9999")
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if want := `"k":5`; !bytes.Contains(body, []byte(want)) {
		t.Fatalf("k not clamped to MaxK: %s", body)
	}
	// /healthz reports the topology.
	resp, body = httpGet(t, rts.URL+"/healthz")
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"shards":1`)) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}
}

// TestRouterHTTPSheds: the router's in-flight gate sheds with 429
// before any shard is bothered.
func TestRouterHTTPSheds(t *testing.T) {
	b := &staticBackend{res: canned([]string{"video"}, 5, cand("http://a", 0, 1, 1))}
	rt, err := New(Config{Shards: [][]Backend{{b}}})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	rs := NewServer(rt, ServerConfig{MaxInflight: 1}, obs.New(reg, nil))
	tok, err := rs.Limiter().Acquire(context.Background()) // saturate the gate
	if err != nil {
		t.Fatal("could not saturate the limiter")
	}
	rts := httptest.NewServer(rs.Handler())
	defer rts.Close()
	resp, _ := httpGet(t, rts.URL+"/search?q=video")
	if resp.StatusCode != 429 {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	// The hint must be a positive integer, not a hardcoded decoration.
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	if got := reg.Counter("router.shed").Value(); got != 1 {
		t.Fatalf("router.shed = %d, want 1", got)
	}
	if b.callCount() != 0 {
		t.Fatalf("shed request still reached a shard (%d calls)", b.callCount())
	}
	tok.Cancel()
	resp, _ = httpGet(t, rts.URL+"/search?q=video")
	if resp.StatusCode != 200 {
		t.Fatalf("status after drain = %d", resp.StatusCode)
	}
}
