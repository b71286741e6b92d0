package serve

import (
	"context"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ajaxcrawl/internal/admission"
	"ajaxcrawl/internal/fetch"
	"ajaxcrawl/internal/obs"
	"ajaxcrawl/internal/query"
)

// FrontConfig parameterizes a /search front: ajaxserve's (Config) and
// ajaxrouter's (router.ServerConfig) are the same knobs.
type FrontConfig struct {
	// DefaultK is the result count when ?k= is absent (default 10).
	DefaultK int
	// MaxK caps ?k= (default 100).
	MaxK int
	// MaxInflight bounds concurrently answered queries; the excess is
	// shed with 429 (0 = unlimited, no limiter at all).
	MaxInflight int
	// AdmissionMin is unused; it stays while benchmark/ sets it
	// (ROADMAP item 1).
	AdmissionMin int
	// QueryTimeout is the per-query deadline, counted from admission
	// (0 = none). A propagated budget can only shorten it.
	QueryTimeout time.Duration
}

// Tier is what a front takes from the process that owns it: its name in
// the 429 body, its budget floor and clock, and its refusal counters
// under the tier's own metric prefix (nil counts nothing).
type Tier struct {
	Name string
	// BudgetFloor refuses a request whose propagated budget is at or
	// below it (default 2ms): by then the caller has given up.
	BudgetFloor time.Duration
	// Clock times the budget and the deadline (nil = wall clock).
	Clock fetch.Clock
	// Shed counts 429s, Deadline requests whose client or deadline was
	// gone before the answer began, BudgetRejected budgets at the floor.
	Shed, Deadline, BudgetRejected *obs.Counter
}

// A Searcher answers the requests a Front admits; it is all that
// differs between a single snapshot and a fan-out over shards. It
// answers q's top k by deadline, measured on the tier's clock (zero =
// none). It sets its tier's own headers on h, on an error too; the
// front answers an error with 502.
type Searcher func(ctx context.Context, q string, k int, deadline time.Time, h http.Header) (Answer, error)

// Answer is a Searcher's reply: the results, and the generation and
// sizes of the index that produced them.
type Answer struct {
	Results      []query.ResultWithSnippet
	Gen          int64
	Docs, States int
}

// Front is the one /search front end of both serving tiers. It owns the
// whole request path, in this order: the propagated budget against the
// floor, admission, q and k, the deadline min(admitted + QueryTimeout,
// arrival + propagated budget), a last check that the client is still
// there, and then the Searcher.
// Whichever Searcher answered, the body is WriteSearch's, so a routed
// body is byte-identical to a single-snapshot one.
type Front struct {
	conf     FrontConfig
	tier     Tier
	searcher Searcher
	tel      *obs.Telemetry
	limiter  *admission.Limiter
	mux      *http.ServeMux
	handler  http.Handler
}

// NewFront builds the front over s and mounts /search. tel may be nil.
func NewFront(cfg FrontConfig, tier Tier, s Searcher, tel *obs.Telemetry) *Front {
	if cfg.DefaultK <= 0 {
		cfg.DefaultK = 10
	}
	if cfg.MaxK <= 0 {
		cfg.MaxK = 100
	}
	if tier.BudgetFloor <= 0 {
		tier.BudgetFloor = 2 * time.Millisecond
	}
	if tier.Clock == nil {
		tier.Clock = fetch.RealClock{}
	}
	f := &Front{conf: cfg, tier: tier, searcher: s, tel: tel, mux: http.NewServeMux()}
	if cfg.MaxInflight > 0 {
		f.limiter = admission.New(admission.Config{Max: cfg.MaxInflight, Tel: tel})
	}
	f.mux.HandleFunc("/search", f.handleSearch)
	f.handler = obs.InstrumentHandler(tel.Registry(), f.mux)
	return f
}

// Handle mounts another of the tier's endpoints beside /search.
func (f *Front) Handle(pattern string, h http.HandlerFunc) { f.mux.HandleFunc(pattern, h) }

// Handler returns the front's endpoints wrapped in the obs request
// middleware (http.requests / http.inflight / http.latency). Debug
// endpoints are mounted by the daemons on their own mux.
func (f *Front) Handler() http.Handler { return f.handler }

// Limiter exposes the admission limiter (nil when MaxInflight is 0) —
// for debug endpoints and tests.
func (f *Front) Limiter() *admission.Limiter { return f.limiter }

func (f *Front) handleSearch(w http.ResponseWriter, r *http.Request) {
	req, ok := f.begin(w, r, true)
	if !ok {
		return
	}
	defer req.tok.Release()
	defer req.cancel()

	h := w.Header()
	ans, err := f.searcher(req.ctx, req.q, req.k, req.deadline, h)
	if err != nil {
		// The tier behind the front produced no answer: the front is a
		// gateway and says so.
		writeError(w, http.StatusBadGateway, err.Error())
		return
	}
	h.Set(HeaderGeneration, strconv.FormatInt(ans.Gen, 10))
	h.Set(HeaderDocs, strconv.Itoa(ans.Docs))
	h.Set(HeaderStates, strconv.Itoa(ans.States))
	WriteSearch(w, req.q, req.k, ans.Results)
}

// admitted is one request past the preamble: the caller owns tok
// (Release when the answer ends) and cancel.
type admitted struct {
	ctx      context.Context
	cancel   context.CancelFunc
	deadline time.Time // on the tier's clock; zero = none
	tok      *admission.Token
	vals     url.Values // the query string, parsed once
	q        string
	k        int
}

// begin runs the preamble /search and ajaxserve's /shard/search share,
// in the order the front tests pin: budget floor → admission → q → k
// (only when withK; shard candidates are never truncated) → deadline →
// client gone. When ok is false the response has been written and the
// token released.
func (f *Front) begin(w http.ResponseWriter, r *http.Request, withK bool) (req admitted, ok bool) {
	arrival := f.tier.Clock.Now()
	budget, hasBudget := budgetFromRequest(r)
	if hasBudget && budget <= f.tier.BudgetFloor {
		f.rejectBudget(w)
		return req, false
	}
	tok, ok := f.admit(w, r)
	if !ok {
		return req, false
	}
	vals := r.URL.Query()
	q, k, ok := f.parseSearch(w, vals, tok, withK)
	if !ok {
		return req, false
	}
	timeout := f.conf.QueryTimeout
	if hasBudget && (timeout == 0 || budget < timeout) {
		timeout = budget
	}

	ctx := obs.With(r.Context(), f.tel)
	cancel := context.CancelFunc(func() {})
	var deadline time.Time
	if timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, timeout)
		deadline = arrival.Add(timeout)
	}
	// A request whose client hung up is not worth answering.
	if ctx.Err() != nil {
		cancel()
		tok.Release()
		f.tier.Deadline.Inc()
		writeError(w, http.StatusServiceUnavailable, "deadline exceeded before evaluation")
		return req, false
	}
	return admitted{ctx: ctx, cancel: cancel, deadline: deadline, tok: tok, vals: vals, q: q, k: k}, true
}

// admit reserves an in-flight slot (Release must follow on the
// nil-safe token) or writes the refusal. Saturation must cost an
// admission decision, not an evaluation, and the shed count is the
// first metric to watch under load.
func (f *Front) admit(w http.ResponseWriter, r *http.Request) (*admission.Token, bool) {
	if f.limiter == nil {
		return nil, true
	}
	tok, err := f.limiter.Acquire(r.Context())
	if err == nil {
		return tok, true
	}
	f.tier.Shed.Inc()
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusTooManyRequests, f.tier.Name+" saturated, retry later")
	return nil, false
}

// parseSearch reads q, and k when withK (DefaultK when absent, clamped
// to MaxK), off the query string; a malformed request is a 400, written
// here after tok.Release().
func (f *Front) parseSearch(w http.ResponseWriter, vals url.Values, tok *admission.Token, withK bool) (q string, k int, ok bool) {
	if q = vals.Get("q"); q == "" {
		tok.Release()
		writeError(w, http.StatusBadRequest, "missing q parameter")
		return "", 0, false
	}
	k = f.conf.DefaultK
	if kv := vals.Get("k"); withK && kv != "" {
		parsed, err := strconv.Atoi(kv)
		if err != nil || parsed <= 0 {
			tok.Release()
			writeError(w, http.StatusBadRequest, "k must be a positive integer")
			return "", 0, false
		}
		k = min(parsed, f.conf.MaxK)
	}
	return q, k, true
}

// budgetFromRequest parses the propagated deadline budget. ok is false
// when the header is absent or malformed (a malformed value from an
// unknown client is ignored, not fatal — only our own router sets it).
func budgetFromRequest(r *http.Request) (time.Duration, bool) {
	h := r.Header.Get(HeaderBudget)
	if h == "" {
		return 0, false
	}
	ms, err := strconv.ParseInt(h, 10, 64)
	if err != nil || ms <= 0 {
		return 0, false
	}
	return time.Duration(ms) * time.Millisecond, true
}

// rejectBudget sheds a request whose remaining budget is below the
// floor: by the time we answered, the caller would already have timed
// out, so answering it is pure waste.
func (f *Front) rejectBudget(w http.ResponseWriter) {
	f.tier.BudgetRejected.Inc()
	writeError(w, http.StatusServiceUnavailable, "deadline budget below floor")
}
