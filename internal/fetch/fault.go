package fetch

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ajaxcrawl/internal/obs"
)

// ErrInjected marks a fault manufactured by a FaultFetcher. It is a
// transport-level transient error, which RetryFetcher retries —
// exactly how a real flaky server would be experienced.
var ErrInjected = errors.New("fetch: injected fault")

// FaultOp is one scripted fault action for FaultConfig.Scripts.
type FaultOp string

// Scripted fault actions: FaultOK passes the call through untouched,
// FaultError fails it with ErrInjected, FaultDelay charges Latency on
// the clock then proceeds, FaultTruncate fails it as a mid-body
// connection loss. A script that runs out behaves as FaultOK forever.
const (
	FaultOK       FaultOp = "ok"
	FaultError    FaultOp = "error"
	FaultDelay    FaultOp = "delay"
	FaultTruncate FaultOp = "truncate"
)

// FaultConfig tunes a FaultFetcher. All probabilities are independent
// per call; the zero value injects nothing.
type FaultConfig struct {
	// ErrorRate is the probability of failing a call with ErrInjected
	// (a transient transport error, e.g. connection reset).
	ErrorRate float64
	// LatencyRate is the probability of a latency spike: Latency is
	// charged on the Clock before the call proceeds normally.
	LatencyRate float64
	// Latency is the spike charged on LatencyRate hits. 0 means 250ms.
	Latency time.Duration
	// TruncateRate is the probability of failing a call as a truncated
	// body (connection lost mid-transfer, detected by the client).
	TruncateRate float64
	// MaxConsecutive, when > 0, caps how many calls in a row one URL may
	// fault (delays excluded): the cap makes every URL recoverable
	// within MaxConsecutive+1 attempts, so a chaos test with a retry
	// budget above the cap passes deterministically.
	MaxConsecutive int
	// Seed seeds the fault RNG; the same seed over the same call
	// sequence injects the same faults.
	Seed int64
	// Scripts, when set, overrides the random model per URL: each call
	// to a scripted URL consumes the next FaultOp of its script.
	Scripts map[string][]FaultOp
}

// FaultFetcher injects configurable faults between the crawler and a
// working Fetcher — the chaos-testing harness. A RetryFetcher above it
// gets to recover the injected faults; instrumentation below it sees
// only the calls it lets through. Deterministic: faults are drawn from
// a seeded RNG (serialized under a mutex), and per-URL Scripts pin
// exact sequences.
//
// Injected faults are recorded as fault.injected.errors /
// fault.injected.delays / fault.injected.truncations counters when
// telemetry rides the context.
type FaultFetcher struct {
	Inner  Fetcher
	Config FaultConfig
	// Clock charges latency spikes. nil means RealClock.
	Clock Clock

	mu        sync.Mutex
	rnd       *rand.Rand
	scriptPos map[string]int
	consec    map[string]int
}

// NewFaultFetcher wraps inner with the given fault model on clock.
func NewFaultFetcher(inner Fetcher, cfg FaultConfig, clock Clock) *FaultFetcher {
	if clock == nil {
		clock = RealClock{}
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 250 * time.Millisecond
	}
	return &FaultFetcher{
		Inner:     inner,
		Config:    cfg,
		Clock:     clock,
		rnd:       rand.New(rand.NewSource(cfg.Seed)),
		scriptPos: make(map[string]int),
		consec:    make(map[string]int),
	}
}

// decide picks the fault for this call under f.mu: the URL's script if
// one exists, else a roll of the random model. MaxConsecutive downgrades
// a failing random fault to FaultOK once the URL's streak hits the cap.
func (f *FaultFetcher) decide(rawurl string) FaultOp {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := FaultOK
	if script, ok := f.Config.Scripts[rawurl]; ok {
		if pos := f.scriptPos[rawurl]; pos < len(script) {
			f.scriptPos[rawurl] = pos + 1
			op = script[pos]
		}
	} else {
		switch r := f.rnd.Float64(); {
		case r < f.Config.ErrorRate:
			op = FaultError
		case r < f.Config.ErrorRate+f.Config.TruncateRate:
			op = FaultTruncate
		case r < f.Config.ErrorRate+f.Config.TruncateRate+f.Config.LatencyRate:
			op = FaultDelay
		}
		if (op == FaultError || op == FaultTruncate) &&
			f.Config.MaxConsecutive > 0 && f.consec[rawurl] >= f.Config.MaxConsecutive {
			op = FaultOK
		}
	}
	if op == FaultError || op == FaultTruncate {
		f.consec[rawurl]++
	} else if op != FaultDelay {
		f.consec[rawurl] = 0
	}
	return op
}

// Fetch implements Fetcher.
func (f *FaultFetcher) Fetch(ctx context.Context, rawurl string) (*Response, error) {
	tel := obs.From(ctx)
	switch f.decide(rawurl) {
	case FaultError:
		tel.Counter("fault.injected.errors").Inc()
		return nil, fmt.Errorf("fetch %s: connection reset: %w", rawurl, ErrInjected)
	case FaultTruncate:
		tel.Counter("fault.injected.truncations").Inc()
		return nil, fmt.Errorf("fetch %s: truncated body: %w", rawurl, ErrInjected)
	case FaultDelay:
		tel.Counter("fault.injected.delays").Inc()
		if err := f.Clock.Sleep(ctx, f.Config.Latency); err != nil {
			return nil, fmt.Errorf("fetch %s: %w", rawurl, err)
		}
	}
	return f.Inner.Fetch(ctx, rawurl)
}
