package main

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"
)

func quiet(string, ...any) {}

// TestSmoke drives every workload at toy size through the code path the
// driver uses — set-up, verified rounds, metric assembly, traced run —
// and checks what must hold at any size: no failed op, every catalogued
// metric present and finite, and network counts that repeat exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("crawls and serves a toy site; skipped under -short")
	}
	ctx := context.Background()
	for i := range workloads {
		def := &workloads[i]
		t.Run(def.Name, func(t *testing.T) {
			run := func() *runResult {
				dir := t.TempDir()
				res, err := runUntraced(ctx, func() workload { return def.New(2008, dir, true) },
					runOpts{minRounds: 2, setups: 1, start: time.Now(), logf: quiet})
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d, correct %v: %v", res.Attempted, res.Failed, res.Correct, res.firstErr)
				}
				if res.rounds != 2 {
					t.Errorf("measured %d rounds, want 2", res.rounds)
				}
				checkMetrics(t, res, endToEnd)
				for _, m := range endToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s = %v; end-to-end metrics are never 0", m.Name, res.Metrics[m.Name].Value)
					}
				}
				for _, name := range timedNames {
					if v := res.ungated[name].Value; !(v > 0) || math.IsInf(v, 0) {
						t.Errorf("timed metric %s = %v", name, v)
					}
				}
				return res
			}
			a, b := run(), run()
			for _, name := range []string{"net_calls_per_op", "wire_kb_per_op"} {
				if a.Metrics[name].Value != b.Metrics[name].Value {
					t.Errorf("%s did not repeat: %v then %v", name, a.Metrics[name].Value, b.Metrics[name].Value)
				}
			}

			dir := t.TempDir()
			traced, err := runTraced(ctx, def, func() workload { return def.New(2008, dir, true) }, 2008, 0, dir, quiet)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Failed != 0 {
				t.Fatalf("traced run: %d of %d ops failed: %v", traced.Failed, traced.Attempted, traced.firstErr)
			}
			checkMetrics(t, traced, perLayer)
			exercised := append([]string{"core.crawl_page_us"}, timedNames...)
			if strings.HasPrefix(def.Name, "serve") {
				exercised[0] = "index.snapshot_load_ms"
			}
			for _, name := range exercised {
				if traced.Metrics[name].Value <= 0 {
					t.Errorf("traced run reports %s = %v", name, traced.Metrics[name].Value)
				}
			}
		})
	}
}

func checkMetrics(t *testing.T, res *runResult, want []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics reported, catalogue has %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", m.Name)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s = %v", m.Name, got.Value)
		case got.Unit != m.Unit:
			t.Errorf("metric %s has unit %q, catalogue says %q", m.Name, got.Unit, m.Unit)
		}
	}
}
