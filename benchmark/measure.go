package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
)

// workload is the harness contract every workload implements.
type workload interface {
	// setup does everything that precedes the first measured round:
	// inputs from the seed, corpus and fleet, reference answers, and one
	// discarded warm-up round.
	setup(ctx context.Context) error
	// round runs the workload's fixed work once and verifies it.
	round(ctx context.Context) roundResult
	// wireCounts reads the cumulative network-call and body-byte counters.
	wireCounts() (calls, bytes int64)
	// teardown stops everything setup started and removes its files.
	teardown()
}

// roundResult is one round's outcome.
type roundResult struct {
	ops    int             // ops attempted
	failed int             // ops failed, refused or answered wrongly
	wall   time.Duration   // the round's timed window
	lat    []time.Duration // per-op latencies
	err    error           // the first failure, for the report
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one benchmark run hands to the printer.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// ungated, rounds and firstErr feed the human-readable report only.
	// ungated holds the timed metrics of an untraced run: they are layer
	// metrics (see timedMetrics), so the result object of an untraced
	// run does not carry them, but a person reading the run sees them.
	ungated  map[string]metric
	rounds   int
	firstErr error
}

// runOpts shape an untraced run.
type runOpts struct {
	// seconds is the measuring window: rounds run until the next one
	// would overrun it.
	seconds float64
	// minRounds is the fewest measured rounds whatever the window.
	minRounds int
	// setups is how many times the whole set-up is performed; setup_s is
	// the median of their walls.
	setups int
	// start is when the first set-up began (process start for a
	// single-workload run).
	start time.Time
	logf  func(string, ...any)
}

// driverOpts are the settings every gated run uses. Three set-ups: the
// driver compares setup_s medians between sets of runs, and asks for
// several set-ups per run with their median reported.
func driverOpts(seconds float64, start time.Time) runOpts {
	return runOpts{seconds: seconds, minRounds: 3, setups: 3, start: start, logf: stderrLog}
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// roundTotals accumulates the per-round figures of a run. Counts are
// summed over the rounds; each timed figure keeps one value per round.
type roundTotals struct {
	ops, failed         int
	allocBytes, mallocs uint64
	calls, bytes        int64
	cpu                 time.Duration
	walls               []float64 // s
	opsPerS             []float64
	p50, p90, p99       []float64 // ms
	firstErr            error
}

// measureRound runs one round between two counter readings. The forced
// GC and the MemStats reads (both stop the world) sit outside the
// round's own timed window and outside its CPU reading.
func (t *roundTotals) measureRound(ctx context.Context, w workload) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls0, bytes0 := w.wireCounts()
	cpu0 := cpuTime()
	res := w.round(ctx)
	cpu1 := cpuTime()
	calls1, bytes1 := w.wireCounts()
	runtime.ReadMemStats(&after)

	t.fold(res)
	t.cpu += cpu1 - cpu0
	t.allocBytes += after.TotalAlloc - before.TotalAlloc
	t.mallocs += after.Mallocs - before.Mallocs
	t.calls += calls1 - calls0
	t.bytes += bytes1 - bytes0
}

// fold adds one round's ops, failures and per-round timed values.
func (t *roundTotals) fold(res roundResult) {
	t.ops += res.ops
	t.failed += res.failed
	if t.firstErr == nil {
		t.firstErr = res.err
	}
	t.walls = append(t.walls, res.wall.Seconds())
	if res.wall > 0 {
		t.opsPerS = append(t.opsPerS, float64(res.ops)/res.wall.Seconds())
	}
	lat := durationsMS(res.lat)
	t.p50 = append(t.p50, percentile(lat, 0.50))
	t.p90 = append(t.p90, percentile(lat, 0.90))
	t.p99 = append(t.p99, percentile(lat, 0.99))
}

// timedMetrics are the four wall and CPU figures of the measured rounds:
// each a per-round value's median over the rounds, except CPU, which is
// the total over the rounds ÷ ops. They are layer metrics, not gated
// ones: on the shared 2-core host they moved 10–27 % between sets of
// runs of identical code (README.md, "Baseline and A/A spread"), and the
// issue demotes any wall metric that cannot hold 10 %.
func (t *roundTotals) timedMetrics() map[string]metric {
	return map[string]metric{
		"ops_per_s":     {median(t.opsPerS), "1/s"},
		"p50_ms":        {median(t.p50), "ms"},
		"p90_ms":        {median(t.p90), "ms"},
		"cpu_ms_per_op": {float64(t.cpu) / float64(time.Millisecond) / float64(t.ops), "ms"},
	}
}

// timedNames lists timedMetrics' keys in report order.
var timedNames = []string{"ops_per_s", "p50_ms", "p90_ms", "cpu_ms_per_op"}

// measureWindow runs identical untraced rounds until the next one would
// overrun the window of seconds, and at least minRounds.
func measureWindow(ctx context.Context, w workload, seconds float64, minRounds int) (*roundTotals, error) {
	t := &roundTotals{}
	window := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for r := 0; ; r++ {
		// Rounds are identical, so the last one predicts the next.
		if r >= minRounds {
			next := time.Duration(t.walls[len(t.walls)-1] * float64(time.Second))
			if time.Since(start)+next > window {
				break
			}
		}
		t.measureRound(ctx, w)
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	if t.ops == 0 {
		return nil, fmt.Errorf("no ops measured")
	}
	return t, nil
}

// liveHeapMB forces a collection and reads what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// runUntraced is the end-to-end run: o.setups set-ups (the last one is
// kept), then identical rounds until the measuring window is used up.
func runUntraced(ctx context.Context, newWorkload func() workload, o runOpts) (*runResult, error) {
	var w workload
	var setupWalls []float64
	start := o.start
	for i := 0; i < o.setups; i++ {
		w = newWorkload()
		if err := w.setup(ctx); err != nil {
			w.teardown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupWalls = append(setupWalls, time.Since(start).Seconds())
		if i < o.setups-1 {
			w.teardown()
			start = time.Now()
		}
	}
	defer w.teardown()

	calBefore := calibrationKernel()
	t, err := measureWindow(ctx, w, o.seconds, o.minRounds)
	if err != nil {
		return nil, err
	}
	heap := liveHeapMB()
	calAfter := calibrationKernel()
	runtime.KeepAlive(w)

	ops := float64(t.ops)
	res := &runResult{
		Correct:   t.failed == 0,
		Attempted: t.ops,
		Failed:    t.failed,
		rounds:    len(t.walls),
		firstErr:  t.firstErr,
		ungated:   t.timedMetrics(),
		Metrics: map[string]metric{
			"setup_s":          {median(setupWalls), "s"},
			"alloc_kb_per_op":  {float64(t.allocBytes) / 1024 / ops, "KiB"},
			"mallocs_per_op":   {float64(t.mallocs) / ops, "count"},
			"net_calls_per_op": {float64(t.calls) / ops, "count"},
			"wire_kb_per_op":   {float64(t.bytes) / 1024 / ops, "KiB"},
			"live_heap_mb":     {heap, "MiB"},
		},
	}
	o.logf("rounds=%d round_walls=%.3f p99_ms=%.3f calibration_drift=%+.4f setups=%.3f",
		len(t.walls), t.walls, median(t.p99), float64(calAfter)/float64(calBefore)-1, setupWalls)
	return res, nil
}

// stderrLog is the default diagnostic sink.
func stderrLog(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}
