package router

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
)

// loadSnapshot publishes graphs as one snapshot and loads it back.
func loadSnapshot(t *testing.T, graphs []*model.Graph) *query.ServeSnapshot {
	t.Helper()
	snap, _, err := serve.LoadSnapshot(publishPartitioned(t, graphs, nil, 1)[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// sameResults compares two rankings field by field: scores must be
// bit-equal float64s.
func sameResults(got, want []query.ResultWithSnippet) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("rank %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	return nil
}

// pages builds n hand-written documents named prefix0..prefix(n-1), the
// i-th with the state texts variants[i%len(variants)].
func pages(prefix string, n int, variants ...[]string) []*model.Graph {
	graphs := make([]*model.Graph, n)
	for i := range graphs {
		graphs[i] = model.NewGraph(fmt.Sprintf("http://%s/%d", prefix, i))
		for depth, text := range variants[i%len(variants)] {
			var h dom.Hash
			copy(h[:], fmt.Sprintf("%s/%d/%d", prefix, i, depth))
			graphs[i].AddState(h, text, depth)
		}
	}
	return graphs
}

// statsFleet is a two-shard in-process fleet built so that a cut under
// the wrong statistics is a wrong answer. Shard 1 always serves b: both
// query terms in every matching state, half the states heavy on
// "alpha", half on "omega". Shard 0 serves a (three times larger, all
// alpha, so globally omega is the rare term and the omega-heavy states
// win) or c (all omega: the reverse). refA and refC are the
// single-snapshot references for a∪b and c∪b.
type statsFleet struct {
	a, b, c    []*model.Graph
	refA, refC *query.Server
	reg        *obs.Registry
	ctx        context.Context
}

// statsQueries lead with the query whose top-k flips between a and c.
var statsQueries = []string{"alpha omega", "alpha", "omega", "filler", "omega filler alpha", "absent"}

func newStatsFleet(t *testing.T) *statsFleet {
	f := &statsFleet{
		a: pages("a", 10, []string{"alpha filler one", "alpha filler two", "alpha filler three"}),
		b: pages("b", 10,
			[]string{"alpha alpha alpha omega filler filler"},
			[]string{"alpha omega omega omega filler filler"},
			[]string{"alpha omega omega omega filler filler"},
			[]string{"alpha alpha alpha omega filler filler"},
			[]string{"filler filler filler"}),
		c:   pages("c", 10, []string{"omega filler one", "omega filler two", "omega filler three"}),
		reg: obs.NewRegistry(),
	}
	f.refA = f.server(t, slices.Concat(f.a, f.b))
	f.refC = f.server(t, slices.Concat(f.c, f.b))
	f.ctx = obs.With(context.Background(), obs.New(f.reg, nil))
	// The fleet is only a trap if the two references disagree at the top.
	topA, _, _ := f.refA.Search(f.ctx, statsQueries[0], 1)
	topC, _, _ := f.refC.Search(f.ctx, statsQueries[0], 1)
	if len(topA) != 1 || len(topC) != 1 || topA[0].URL == topC[0].URL {
		t.Fatalf("top of %q is %+v over a∪b and %+v over c∪b: they must differ", statsQueries[0], topA, topC)
	}
	return f
}

func (f *statsFleet) server(t *testing.T, graphs []*model.Graph) *query.Server {
	return query.NewServer(loadSnapshot(t, graphs), query.CacheOptions{})
}

func (f *statsFleet) stat(name string) int64 { return f.reg.Counter("router.stats." + name).Value() }

// TestStaleHintFallsBackOnce: a shard hot-swaps its snapshot between two
// identical queries. The second goes out with a hint summed from
// statistics the shard no longer has; the shard's answer says so, and
// the router forgets the terms and fans out once more with no hint. The
// answer is the single-snapshot answer over the NEW corpus, at the cost
// of exactly one extra fan-out, once.
func TestStaleHintFallsBackOnce(t *testing.T) {
	const k = 3
	f := newStatsFleet(t)
	shard0 := f.server(t, f.a)
	taps := []*soakBackend{
		{inner: LocalBackend{QS: shard0}},
		{inner: LocalBackend{QS: f.server(t, f.b)}},
	}
	rt, err := New(Config{Shards: [][]Backend{{taps[0]}, {taps[1]}}})
	if err != nil {
		t.Fatal(err)
	}
	calls := func() [2]int64 { return [2]int64{taps[0].calls.Load(), taps[1].calls.Load()} }
	q := statsQueries[0]

	for i := 0; i < 2; i++ { // cold, then warm
		want, _, _ := f.refA.Search(f.ctx, q, k)
		if err := sameResults(mustSearch(t, rt, f.ctx, q, k).Results, want); err != nil {
			t.Fatalf("before the swap, pass %d: %v", i, err)
		}
	}
	if f.stat("miss") != 1 || f.stat("hit") != 1 || f.stat("stale") != 0 || calls() != [2]int64{2, 2} {
		t.Fatalf("before the swap: miss %d hit %d stale %d calls %v, want 1 1 0 [2 2]",
			f.stat("miss"), f.stat("hit"), f.stat("stale"), calls())
	}

	shard0.Swap(f.ctx, loadSnapshot(t, f.c))
	want, _, _ := f.refC.Search(f.ctx, q, k)
	if err := sameResults(mustSearch(t, rt, f.ctx, q, k).Results, want); err != nil {
		t.Fatalf("first query after the swap: %v", err)
	}
	if f.stat("stale") != 1 || calls() != [2]int64{4, 4} {
		t.Fatalf("first query after the swap: stale %d calls %v, want 1 and [4 4] (one extra fan-out)", f.stat("stale"), calls())
	}
	if err := sameResults(mustSearch(t, rt, f.ctx, q, k).Results, want); err != nil {
		t.Fatalf("second query after the swap: %v", err)
	}
	if f.stat("stale") != 1 || f.stat("hit") != 2 || calls() != [2]int64{5, 5} {
		t.Fatalf("second query after the swap: stale %d hit %d calls %v, want 1 2 [5 5]", f.stat("stale"), f.stat("hit"), calls())
	}

	// Every other term the table learned before the swap is now wrong
	// or right by luck; either way each answer is exact, twice.
	for pass := 0; pass < 2; pass++ {
		for _, q := range statsQueries {
			want, _, _ := f.refC.Search(f.ctx, q, k)
			if err := sameResults(mustSearch(t, rt, f.ctx, q, k).Results, want); err != nil {
				t.Fatalf("after the swap, pass %d, q=%q: %v", pass, q, err)
			}
		}
	}
}

// TestReplicasOnDifferentSnapshotsStayExact: the two replicas of shard
// 0 serve different snapshots (a publish still rolling out) and take
// turns answering, so every hint the router learns from one is refuted
// by the other. Each answer is exactly the single-snapshot answer over
// what the answering replicas hold.
func TestReplicasOnDifferentSnapshotsStayExact(t *testing.T) {
	const k = 3
	f := newStatsFleet(t)
	onA := &soakBackend{inner: LocalBackend{QS: f.server(t, f.a)}}
	onC := &soakBackend{inner: LocalBackend{QS: f.server(t, f.c)}}
	shard1 := LocalBackend{QS: f.server(t, f.b)}
	// EjectThreshold above 1: the test takes replicas down on purpose
	// and wants them picked again.
	rt, err := New(Config{Shards: [][]Backend{{onA, onC}, {shard1}}, EjectThreshold: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		onA.down.Store(round%2 == 1)
		onC.down.Store(round%2 == 0)
		ref := f.refA
		if round%2 == 1 {
			ref = f.refC
		}
		for _, q := range slices.Concat(statsQueries, statsQueries) { // refuted, then confirmed
			want, _, _ := ref.Search(f.ctx, q, k)
			m := mustSearch(t, rt, f.ctx, q, k)
			if err := sameResults(m.Results, want); err != nil {
				t.Fatalf("round %d q=%q: %v", round, q, err)
			}
			if m.ShardsOK != 2 {
				t.Fatalf("round %d q=%q: %d/2 shards", round, q, m.ShardsOK)
			}
		}
	}
	if f.stat("stale") == 0 || f.stat("hit") == 0 {
		t.Fatalf("stale %d, hit %d: the replicas never disagreed with a hint, or no hint was ever sent", f.stat("stale"), f.stat("hit"))
	}
}

// TestWarmDegradedAnswerKeepsScores: with the table warm and a shard
// down under Partial, the failed shard's remembered df and state count
// still enter the fold — they are what the responders cut under — so
// the degraded answer is the healthy ranking with that shard's
// documents removed, every score bit-equal. (Cold, the idf is summed
// over the responders and scores move; that is the older behaviour and
// is not pinned.)
func TestWarmDegradedAnswerKeepsScores(t *testing.T) {
	const k = 3
	f := newStatsFleet(t)
	shard1 := &soakBackend{inner: LocalBackend{QS: f.server(t, f.b)}}
	rt, err := New(Config{Shards: [][]Backend{{LocalBackend{QS: f.server(t, f.a)}}, {shard1}}, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	onShard1 := map[string]bool{}
	for _, g := range f.b {
		onShard1[g.URL] = true
	}
	want := make(map[string][]query.ResultWithSnippet)
	for _, q := range statsQueries {
		mustSearch(t, rt, f.ctx, q, k) // warms the table
		// k = 0 is every result under the global idf.
		for _, r := range mustSearch(t, rt, f.ctx, q, 0).Results {
			if !onShard1[r.URL] && len(want[q]) < k {
				want[q] = append(want[q], r)
			}
		}
	}

	shard1.down.Store(true)
	lost := 0
	for _, q := range statsQueries {
		healthy, _, _ := f.refA.Search(f.ctx, q, k)
		m := mustSearch(t, rt, f.ctx, q, k)
		if m.ShardsOK != 1 || len(m.FailedShards) != 1 || m.FailedShards[0] != 1 {
			t.Fatalf("q=%q: %d/2 shards, failed %v", q, m.ShardsOK, m.FailedShards)
		}
		if err := sameResults(m.Results, want[q]); err != nil {
			t.Fatalf("q=%q degraded: %v", q, err)
		}
		if sameResults(m.Results, healthy) != nil {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("no degraded answer differs from the healthy one: shard 1 never had a top-k document")
	}
	if f.stat("stale") != 0 {
		t.Fatalf("router.stats.stale = %d: a down shard is not a stale hint", f.stat("stale"))
	}
}

// TestStatsTableIsBounded: query terms are attacker-chosen, so the table
// empties itself at maxStatTerms instead of growing.
func TestStatsTableIsBounded(t *testing.T) {
	tab := newStatsTable(1)
	res := func(term string) (terms []string, responses []*query.ShardResult) {
		terms = []string{term}
		return terms, []*query.ShardResult{{Terms: terms, DF: []int{1}, TotalStates: 9}}
	}
	for i := 0; i < maxStatTerms; i++ {
		tab.learn(res(fmt.Sprintf("t%d", i)))
	}
	if tab.expect([]string{"t0"}) == nil || len(tab.df) != maxStatTerms {
		t.Fatalf("table holds %d terms before the cap, want %d with t0 among them", len(tab.df), maxStatTerms)
	}
	tab.learn(res("one-too-many"))
	if len(tab.df) != 1 || tab.expect([]string{"t0"}) != nil || tab.expect([]string{"one-too-many"}) == nil {
		t.Fatalf("table holds %d terms after the cap, want just the newest", len(tab.df))
	}
}

// TestStatsTableDoesNotPinQueries: query.Parse returns lower-case terms
// as substrings of the query string, and both the query's length and
// its terms are attacker-chosen — the table's keys must be copies, or
// maxStatTerms short terms could each keep a long request alive.
func TestStatsTableDoesNotPinQueries(t *testing.T) {
	q := "needle " + strings.Repeat("!", 4096)
	terms := query.Parse(q)
	tab := newStatsTable(1)
	tab.learn(terms, []*query.ShardResult{{Terms: terms, DF: []int{1}, TotalStates: 9}})
	lo := uintptr(unsafe.Pointer(unsafe.StringData(q)))
	for term := range tab.df {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(term))); p >= lo && p < lo+uintptr(len(q)) {
			t.Fatalf("table key %q points into the %d-byte query string", term, len(q))
		}
	}
	if tab.expect([]string{"needle"}) == nil {
		t.Fatal("learned term not found")
	}
}
