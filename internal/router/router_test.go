package router

import (
	"context"
	"math"
	"strings"
	"testing"

	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
)

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted an empty topology")
	}
	if _, err := New(Config{Shards: [][]Backend{{}}}); err == nil {
		t.Fatal("New accepted a shard with no replicas")
	}
	if _, err := New(Config{Shards: [][]Backend{{nil}}}); err == nil {
		t.Fatal("New accepted a nil replica")
	}
	r, err := New(Config{Shards: [][]Backend{
		{&staticBackend{}, &staticBackend{}},
		{&staticBackend{}},
	}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got := r.NumShards(); got != 2 {
		t.Fatalf("NumShards = %d, want 2", got)
	}
	if got := r.Replicas(0); got != 2 {
		t.Fatalf("Replicas(0) = %d, want 2", got)
	}
}

// merge is the router's path from validated responses to a ranking:
// drop duplicates, then fold.
func merge(terms []string, responses []*query.ShardResult, k int) ([]query.ResultWithSnippet, int) {
	dups := dropDuplicates(responses)
	return query.Fold(terms, query.DefaultWeights, responses, k), dups
}

func TestMergeDeduplicatesOverlap(t *testing.T) {
	terms := []string{"x"}
	r0 := canned(terms, 5, cand("http://a", 0, 1.0, 1))
	r1 := canned(terms, 5, cand("http://a", 0, 9.0, 1), cand("http://b", 0, 0.5, 1))
	got, dups := merge(terms, []*query.ShardResult{r0, r1}, 0)
	if dups != 1 {
		t.Fatalf("dups = %d, want 1", dups)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2", len(got))
	}
	seen := map[string]bool{}
	for _, r := range got {
		if seen[resultKey(r)] {
			t.Fatalf("duplicate %s in merged results", resultKey(r))
		}
		seen[resultKey(r)] = true
	}
	// The first shard wins, and the losing backend's response is its own:
	// it must come out untouched.
	if got[0].URL != "http://a" || got[0].Score >= 9 {
		t.Fatalf("overlap kept the later shard's copy: %+v", got[0])
	}
	if len(r1.Candidates) != 2 {
		t.Fatalf("dedup mutated a backend's response: %+v", r1.Candidates)
	}
}

func TestSearchEmptyQueryIsVacuouslyComplete(t *testing.T) {
	b := &staticBackend{res: canned([]string{"x"}, 1)}
	r, err := New(Config{Shards: [][]Backend{{b}, {b}}})
	if err != nil {
		t.Fatal(err)
	}
	m := mustSearch(t, r, context.Background(), "...", 10)
	if m.ShardsOK != 2 || m.ShardsTotal != 2 || len(m.Results) != 0 {
		t.Fatalf("empty query merged = %+v", m)
	}
	if b.callCount() != 0 {
		t.Fatalf("empty query hit backends %d times", b.callCount())
	}
}

func TestSearchPartialDisabledFailsOnShardError(t *testing.T) {
	terms := []string{"video"}
	good := &staticBackend{res: canned(terms, 5, cand("http://a", 0, 1, 1))}
	bad := &staticBackend{err: errReplicaDown}

	r, err := New(Config{Shards: [][]Backend{{good}, {bad}}, Partial: false})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(nil, nil)
	ctx := obs.With(context.Background(), tel)
	m, err := r.Search(ctx, "video", 10)
	if err == nil {
		t.Fatal("partial-disabled search succeeded with a dead shard")
	}
	if m == nil || m.ShardsOK != 1 || m.ShardsTotal != 2 {
		t.Fatalf("merged metadata = %+v", m)
	}
	if len(m.FailedShards) != 1 || m.FailedShards[0] != 1 {
		t.Fatalf("FailedShards = %v, want [1]", m.FailedShards)
	}
	if got := tel.Counter("router.fanout.partial").Value(); got != 1 {
		t.Fatalf("router.fanout.partial = %d, want 1", got)
	}
}

func TestSearchPartialToleratesShardError(t *testing.T) {
	terms := []string{"video"}
	good := &staticBackend{res: canned(terms, 5, cand("http://a", 0, 1, 1))}
	bad := &staticBackend{err: errReplicaDown}

	r, err := New(Config{Shards: [][]Backend{{good}, {bad}}, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(nil, nil)
	ctx := obs.With(context.Background(), tel)
	m := mustSearch(t, r, ctx, "video", 10)
	if m.ShardsOK != 1 || m.ShardsTotal != 2 {
		t.Fatalf("shards = %d/%d, want 1/2", m.ShardsOK, m.ShardsTotal)
	}
	if len(m.Results) != 1 || m.Results[0].URL != "http://a" {
		t.Fatalf("results = %+v", m.Results)
	}
	if got := tel.Counter("router.fanout.partial").Value(); got != 1 {
		t.Fatalf("router.fanout.partial = %d, want 1", got)
	}
	if got := tel.Counter("router.fanout.shard_errors").Value(); got != 1 {
		t.Fatalf("router.fanout.shard_errors = %d, want 1", got)
	}
}

func TestSearchNoShardAnswered(t *testing.T) {
	bad := &staticBackend{err: errReplicaDown}
	r, err := New(Config{Shards: [][]Backend{{bad}, {bad}}, Partial: true})
	if err != nil {
		t.Fatal(err)
	}
	m, err := r.Search(context.Background(), "video", 10)
	if err == nil {
		t.Fatal("search succeeded with every shard down")
	}
	if m == nil || m.ShardsOK != 0 {
		t.Fatalf("merged = %+v", m)
	}
	if !strings.Contains(err.Error(), "no shard answered") {
		t.Fatalf("err = %v", err)
	}
}

// TestSearchFailoverOnInvalidResponse: a replica that answers garbage
// (vector misaligned with the query) must be treated exactly like a dead
// replica — the router fails over to the sibling and the query succeeds.
func TestSearchFailoverOnInvalidResponse(t *testing.T) {
	terms := []string{"video"}
	garbage := canned([]string{"video", "extra"}, 5)
	bad := &staticBackend{res: garbage}
	good := &staticBackend{res: canned(terms, 5, cand("http://a", 0, 1, 1))}

	clock := newTestClock()
	g := &scriptedGroup{clock: clock}
	g.script = []func(ctx context.Context) (*query.ShardResult, error){
		func(ctx context.Context) (*query.ShardResult, error) { return bad.ShardSearch(ctx, "", query.Hint{}) },
		func(ctx context.Context) (*query.ShardResult, error) { return good.ShardSearch(ctx, "", query.Hint{}) },
	}
	r, err := New(Config{Shards: [][]Backend{g.backends(2)}, Clock: clock, Partial: false})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(nil, nil)
	ctx := obs.With(context.Background(), tel)
	m := mustSearch(t, r, ctx, "video", 10)
	if m.ShardsOK != 1 || len(m.Results) != 1 || m.Results[0].URL != "http://a" {
		t.Fatalf("merged = %+v", m)
	}
	if got := tel.Counter("router.fanout.shard_errors").Value(); got != 1 {
		t.Fatalf("router.fanout.shard_errors = %d, want 1", got)
	}
	if got := len(g.arrivalTimes()); got != 2 {
		t.Fatalf("replica arrivals = %d, want 2 (primary + failover)", got)
	}
}

// TestSearchExhaustedReplicasReportsLastError: when every replica of a
// shard errors, the shard fails with the last attempt's error.
func TestSearchExhaustedReplicasReportsLastError(t *testing.T) {
	bad := &staticBackend{err: errReplicaDown}
	r, err := New(Config{Shards: [][]Backend{{bad, bad, bad}}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Search(context.Background(), "video", 10)
	if err == nil {
		t.Fatal("search succeeded with all replicas down")
	}
	if !strings.Contains(err.Error(), "replica down") {
		t.Fatalf("err = %v", err)
	}
	if bad.callCount() != 3 {
		t.Fatalf("attempts = %d, want 3 (every replica tried once)", bad.callCount())
	}
}

func TestCheckShardResultRejections(t *testing.T) {
	terms := []string{"a", "b"}
	ok := canned(terms, 5, cand("http://x", 0, 1, 1, 0))
	if err := checkShardResult(ok, terms, query.Hint{}); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*query.ShardResult)
	}{
		{"term mismatch", func(r *query.ShardResult) { r.Terms[1] = "c" }},
		{"df misaligned", func(r *query.ShardResult) { r.DF = r.DF[:1] }},
		{"negative df", func(r *query.ShardResult) { r.DF[0] = -1 }},
		{"negative states", func(r *query.ShardResult) { r.TotalStates = -1 }},
		{"df over int32", func(r *query.ShardResult) { r.DF[0] = math.MaxInt32 + 1 }},
		{"states over int32", func(r *query.ShardResult) { r.TotalStates = math.MaxInt32 + 1 }},
		{"empty url", func(r *query.ShardResult) { r.Candidates[0].URL = "" }},
		{"huge url", func(r *query.ShardResult) { r.Candidates[0].URL = strings.Repeat("u", 9<<10) }},
		{"negative state", func(r *query.ShardResult) { r.Candidates[0].State = -2 }},
		{"tf misaligned", func(r *query.ShardResult) { r.Candidates[0].TFs = []float64{1} }},
		{"nan base", func(r *query.ShardResult) { r.Candidates[0].Base = math.NaN() }},
		{"inf tf", func(r *query.ShardResult) { r.Candidates[0].TFs[0] = math.Inf(1) }},
		{"negative tf", func(r *query.ShardResult) { r.Candidates[0].TFs[0] = -1 }},
		{"tf above 1", func(r *query.ShardResult) { r.Candidates[0].TFs[0] = 1e308 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := canned(terms, 5, cand("http://x", 0, 1, 1, 0))
			tc.mutate(res)
			if err := checkShardResult(res, terms, query.Hint{}); err == nil {
				t.Fatalf("%s passed validation", tc.name)
			}
		})
	}
	if err := checkShardResult(nil, terms, query.Hint{}); err == nil {
		t.Fatal("nil result passed validation")
	}
	// Under a hint the shard was asked for its k best: more is a shard
	// that ignored the cut, and fails over like any other bad answer.
	two := canned(terms, 5, cand("http://x", 0, 1, 1, 0), cand("http://y", 0, 1, 1, 0))
	if err := checkShardResult(two, terms, query.Hint{K: 2, DF: []int{2, 0}, N: 5}); err != nil {
		t.Fatalf("k candidates under a k-hint rejected: %v", err)
	}
	if err := checkShardResult(two, terms, query.Hint{K: 1, DF: []int{2, 0}, N: 5}); err == nil {
		t.Fatal("2 candidates passed validation under a hint with k=1")
	}
}
