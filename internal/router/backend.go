package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ajaxcrawl/internal/query"
	"ajaxcrawl/internal/serve"
)

// Backend answers the shard half of a distributed query. The two
// implementations are an in-process query.Server (tests, benches,
// single-binary fleets) and an HTTP client speaking ajaxserve's
// /shard/search protocol (the real fleet).
type Backend interface {
	// ShardSearch evaluates q on the shard and returns its pre-idf
	// candidates — all of them, or under a non-zero hint at most hint.K
	// — plus local collection statistics. Implementations must honor
	// ctx: an attempt abandoned at the shard deadline should stop
	// working promptly.
	ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error)
}

// LocalBackend serves a shard from an in-process query.Server.
type LocalBackend struct {
	QS *query.Server
}

// ShardSearch implements Backend.
func (b LocalBackend) ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return b.QS.ShardSearchTop(ctx, q, hint), nil
}

// Probe implements Prober: an in-process shard is healthy whenever the
// process is.
func (b LocalBackend) Probe(ctx context.Context) error { return ctx.Err() }

// DefaultMaxResponseBytes bounds one shard response body (32 MiB) —
// a shard that tries to stream more is failed, not buffered.
const DefaultMaxResponseBytes = 32 << 20

// HTTPBackend speaks the /shard/search protocol to a remote ajaxserve.
type HTTPBackend struct {
	// BaseURL is the shard server's root, e.g. "http://10.0.0.7:8090".
	BaseURL string
	// Client issues the requests (nil = http.DefaultClient). Cancel
	// deadlines ride the request context, so the client itself needs no
	// timeout.
	Client *http.Client
}

// ShardSearch implements Backend. When the context carries a deadline
// budget (WithBudget), the remainder is forwarded to the shard server
// as X-Ajaxserve-Budget-Ms — and a call whose budget is already under a
// millisecond fails fast without touching the network at all. A hint
// rides the query string as k, n and df (integers, never a float idf).
func (b *HTTPBackend) ShardSearch(ctx context.Context, q string, hint query.Hint) (*query.ShardResult, error) {
	u := b.BaseURL + "/shard/search?q=" + url.QueryEscape(q)
	if hint.K > 0 {
		buf := fmt.Appendf(nil, "&k=%d&n=%d&df=", hint.K, hint.N)
		for i, df := range hint.DF {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, int64(df), 10)
		}
		u += string(buf)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	if rem, ok := BudgetRemaining(ctx); ok {
		if rem < time.Millisecond {
			return nil, ErrBudgetExhausted
		}
		req.Header.Set(serve.HeaderBudget, strconv.FormatInt(rem.Milliseconds(), 10))
	}
	client := b.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// Read a bounded sliver of the error body for the message; a
		// saturated replica's 429 should surface as text, not bytes.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return nil, fmt.Errorf("router: shard %s: status %d: %s", b.BaseURL, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return decodeShardResult(resp.Body, DefaultMaxResponseBytes, hint.K)
}

// Probe implements Prober: GET /healthz on the shard server. Any
// non-200 answer (or transport error) keeps the replica quarantined.
func (b *HTTPBackend) Probe(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.BaseURL+"/healthz", nil)
	if err != nil {
		return fmt.Errorf("router: %w", err)
	}
	client := b.Client
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("router: probe %s: status %d", b.BaseURL, resp.StatusCode)
	}
	return nil
}

// DecodeShardResult reads one shard response body (bounded by maxBytes;
// 0 = DefaultMaxResponseBytes) and decodes it defensively: the body is
// network input from a machine that may be compromised or simply wrong,
// so the size is capped before buffering, unknown fields are tolerated
// (forward compatibility), decoding panics are converted to errors, and
// the caller is expected to run checkShardResult against the query
// before the merge. FuzzRouterMergeResponse hammers this path.
func DecodeShardResult(r io.Reader, maxBytes int64) (*query.ShardResult, error) {
	return decodeShardResult(r, maxBytes, 0)
}

// decodeShardResult is DecodeShardResult for an answer to a cut to k
// candidates (0 = no cut), which json.Unmarshal fills in place. The
// pooled body buffer is free again on return: Unmarshal copies strings.
func decodeShardResult(r io.Reader, maxBytes int64, k int) (res *query.ShardResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("router: shard response decode panicked: %v", p)
		}
	}()
	if maxBytes <= 0 {
		maxBytes = DefaultMaxResponseBytes
	}
	// Read one byte past the cap so truncation is distinguishable from
	// an exactly-cap-sized body.
	buf := serve.GetBuffer()
	defer serve.PutBuffer(buf)
	if _, err := buf.ReadFrom(io.LimitReader(r, maxBytes+1)); err != nil {
		return nil, fmt.Errorf("router: shard response read: %w", err)
	}
	if int64(buf.Len()) > maxBytes {
		return nil, fmt.Errorf("router: shard response exceeds %d bytes", maxBytes)
	}
	// Every candidate takes at least the two bytes of "{}", so a huge k
	// never sizes the slice past what this body can hold.
	sr := query.ShardResult{Candidates: make([]query.ShardCandidate, 0, min(k, buf.Len()/2))}
	if err := json.Unmarshal(buf.Bytes(), &sr); err != nil {
		return nil, fmt.Errorf("router: shard response decode: %w", err)
	}
	return &sr, nil
}
