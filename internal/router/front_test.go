package router

import (
	"context"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"ajaxcrawl/internal/admission"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
	"ajaxcrawl/internal/webapp"
)

// frontUnderTest is one tier's /search front, built fresh for one case.
type frontUnderTest struct {
	h   http.Handler
	lim *admission.Limiter
	reg *obs.Registry
	// evaluations counts the work behind the front: snapshot searches
	// for ajaxserve, shard calls for ajaxrouter.
	evaluations func() int64
}

// frontTier builds one tier over the shared corpus with the given front
// configuration and clock.
type frontTier struct {
	name    string
	prefix  string   // the tier's counter prefix
	headers []string // the exact header set of its 200
	start   func(t *testing.T, cfg ServerConfig, clock *testClock) frontUnderTest
}

// TestFrontCasesOnBothTiers runs one table of /search front cases
// against ajaxserve over a snapshot and ajaxrouter over two in-process
// shards of the same corpus: both tiers must refuse, count and answer
// alike, and differ only in the headers their Searcher sets.
func TestFrontCasesOnBothTiers(t *testing.T) {
	graphs, pr := crawlCorpus(t, 8, 37)
	single := publishPartitioned(t, graphs, pr, 1)[0]
	shardDirs := publishPartitioned(t, graphs, pr, 2)
	q := webapp.Queries()[0]

	tiers := []frontTier{{
		name:   "ajaxserve",
		prefix: "query.serve",
		headers: []string{"Content-Type", serve.HeaderCache, serve.HeaderDocs,
			serve.HeaderGeneration, serve.HeaderStates},
		start: func(t *testing.T, cfg ServerConfig, clock *testClock) frontUnderTest {
			reg := obs.NewRegistry()
			s, err := serve.New(serve.Config{
				SnapshotDir:  single,
				DefaultK:     cfg.DefaultK,
				MaxK:         cfg.MaxK,
				MaxInflight:  cfg.MaxInflight,
				QueryTimeout: cfg.QueryTimeout,
				Clock:        clock,
			}, obs.New(reg, nil))
			if err != nil {
				t.Fatal(err)
			}
			return frontUnderTest{h: s.Handler(), lim: s.Limiter(), reg: reg,
				evaluations: reg.Counter("query.serve.requests").Value}
		},
	}, {
		name:   "ajaxrouter",
		prefix: "router",
		headers: []string{"Content-Type", serve.HeaderDocs, serve.HeaderGeneration,
			HeaderShards, serve.HeaderStates},
		start: func(t *testing.T, cfg ServerConfig, clock *testClock) frontUnderTest {
			var shards []*soakBackend
			topo := make([][]Backend, len(shardDirs))
			for i, dir := range shardDirs {
				snap, _, err := serve.LoadSnapshot(dir, nil)
				if err != nil {
					t.Fatal(err)
				}
				sb := &soakBackend{inner: LocalBackend{QS: query.NewServer(snap, query.CacheOptions{})}}
				shards = append(shards, sb)
				topo[i] = []Backend{sb}
			}
			rt, err := New(Config{Shards: topo, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			rs := NewServer(rt, cfg, obs.New(reg, nil))
			calls := func() (n int64) {
				for _, sb := range shards {
					n += sb.calls.Load()
				}
				return n
			}
			return frontUnderTest{h: rs.Handler(), lim: rs.Limiter(), reg: reg, evaluations: calls}
		},
	}}

	cases := []struct {
		name    string
		cfg     ServerConfig
		answers bool // every other case must refuse before any evaluation
		run     func(t *testing.T, tier frontTier, f frontUnderTest, clock *testClock)
	}{{
		name: "budget at the floor",
		run: func(t *testing.T, tier frontTier, f frontUnderTest, _ *testClock) {
			req := httptest.NewRequest(http.MethodGet, searchPath(q, 10), nil)
			req.Header.Set(serve.HeaderBudget, "2")
			if rec := serveFront(f.h, req); rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
			}
			wantCount(t, f.reg, tier.prefix+".budget_rejected", 1)
		},
	}, {
		name: "saturated",
		cfg:  ServerConfig{MaxInflight: 1},
		run: func(t *testing.T, tier frontTier, f frontUnderTest, _ *testClock) {
			tok, err := f.lim.Acquire(context.Background())
			if err != nil {
				t.Fatal("could not saturate the limiter")
			}
			defer tok.Release()
			rec := serveFront(f.h, httptest.NewRequest(http.MethodGet, searchPath(q, 10), nil))
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body)
			}
			if ra := rec.Header().Get("Retry-After"); ra != "1" {
				t.Fatalf("Retry-After = %q, want 1", ra)
			}
			wantCount(t, f.reg, tier.prefix+".shed", 1)
		},
	}, {
		name: "malformed request",
		run: func(t *testing.T, _ frontTier, f frontUnderTest, _ *testClock) {
			for _, path := range []string{"/search", "/search?q=", "/search?q=x&k=abc", "/search?q=x&k=0"} {
				if rec := serveFront(f.h, httptest.NewRequest(http.MethodGet, path, nil)); rec.Code != http.StatusBadRequest {
					t.Fatalf("%s: status %d, want 400", path, rec.Code)
				}
			}
		},
	}, {
		name: "client gone before evaluation",
		run: func(t *testing.T, tier frontTier, f frontUnderTest, _ *testClock) {
			ctx, hangUp := context.WithCancel(context.Background())
			hangUp()
			req := httptest.NewRequest(http.MethodGet, searchPath(q, 10), nil).WithContext(ctx)
			if rec := serveFront(f.h, req); rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body)
			}
			wantCount(t, f.reg, tier.prefix+".deadline", 1)
		},
	}, {
		name:    "200 headers",
		answers: true,
		run: func(t *testing.T, tier frontTier, f frontUnderTest, _ *testClock) {
			rec := serveFront(f.h, httptest.NewRequest(http.MethodGet, searchPath(q, 10), nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			var got []string
			for name := range rec.Header() {
				got = append(got, name)
			}
			slices.Sort(got)
			if !slices.Equal(got, tier.headers) {
				t.Fatalf("headers %v, want %v", got, tier.headers)
			}
		},
	}}

	for _, tier := range tiers {
		for _, c := range cases {
			t.Run(tier.name+"/"+c.name, func(t *testing.T) {
				clock := newTestClock()
				f := tier.start(t, c.cfg, clock)
				c.run(t, tier, f, clock)
				if evaluated := f.evaluations() != 0; evaluated != c.answers {
					t.Fatalf("evaluated = %v, want %v", evaluated, c.answers)
				}
			})
		}
	}
}

func serveFront(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func wantCount(t *testing.T, reg *obs.Registry, name string, want int64) {
	t.Helper()
	if got := reg.Counter(name).Value(); got != want {
		t.Fatalf("%s = %d, want %d", name, got, want)
	}
}
