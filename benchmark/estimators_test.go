package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndPercentileOnScriptedSamples(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{5}, 0.5, 5},
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9, 9.1},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9, 10},
		{[]float64{10, 20}, 0, 10},
		{[]float64{10, 20}, 1, 20},
		{nil, 0.5, 0},
	}
	for _, c := range cases {
		if got := percentile(c.xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{9, 1, 5}
	if median(xs); xs[0] != 9 {
		t.Error("median sorted its input in place")
	}
}

// The median over rounds shrugs off one slow round.
func TestMedianOfRoundsIgnoresOneOutlier(t *testing.T) {
	rounds := []float64{100, 101, 99, 100, 400, 100, 101, 99, 100, 100}
	if got := median(rounds); !near(got, 100) {
		t.Errorf("median over rounds = %v, want 100", got)
	}
}

// Timed metrics are per-round values reduced by the median over the
// rounds; CPU is the total over the rounds ÷ ops.
func TestTimedMetricsAreMediansOverRounds(t *testing.T) {
	ms := time.Millisecond
	var tot roundTotals
	for _, r := range []roundResult{
		{ops: 4, wall: 40 * ms, lat: []time.Duration{4 * ms, 5 * ms, 6 * ms, 25 * ms}},
		{ops: 4, wall: 80 * ms, lat: []time.Duration{14 * ms, 15 * ms, 16 * ms, 35 * ms}}, // a slow round
		{ops: 4, wall: 50 * ms, lat: []time.Duration{5 * ms, 6 * ms, 7 * ms, 26 * ms}},
	} {
		tot.fold(r)
	}
	tot.cpu = 60 * ms
	got := tot.timedMetrics()
	want := map[string]float64{
		"ops_per_s":     80,  // 100, 50, 80 per round
		"p50_ms":        6.5, // 5.5, 15.5, 6.5
		"p90_ms":        20.3,
		"cpu_ms_per_op": 5, // 60 ms over 12 ops
	}
	for name, w := range want {
		if !near(got[name].Value, w) {
			t.Errorf("%s = %v, want %v", name, got[name].Value, w)
		}
	}
	if tot.ops != 12 || len(tot.walls) != 3 {
		t.Errorf("ops = %d over %d rounds, want 12 over 3", tot.ops, len(tot.walls))
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes.
func TestQuartileSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; !near(got, want) {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
	ys := []float64{11, 2, 9, 4, 7, 4, 5}
	if got, want := quartileSpread(ys), (9.0-4.0)/5.0; !near(got, want) {
		t.Errorf("quartileSpread(ys) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3, 3}); got != 0 {
		t.Errorf("constant samples have spread %v, want 0", got)
	}
}

func TestDurationsMS(t *testing.T) {
	got := durationsMS([]time.Duration{1500 * time.Microsecond, 2 * time.Second})
	if !near(got[0], 1.5) || !near(got[1], 2000) {
		t.Errorf("durationsMS = %v", got)
	}
}

func TestTracerSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "child", Start: 50, End: 70},
		{ID: 4, Parent: 2, Name: "leaf", Start: 15, End: 20},
	}}
	st := tr.stats()
	if got := st["parent"].Self; got != 50 {
		t.Errorf("parent self = %v, want 50", got)
	}
	if got := st["child"]; got.Count != 2 || got.Total != 50 || got.Self != 45 {
		t.Errorf("child = %+v, want count 2 total 50 self 45", got)
	}
	var none *tracer
	none.timed("x", 0, 0, func() {})
	if id := none.start("x", 0, 0); id != 0 {
		t.Errorf("nil tracer start = %d, want 0", id)
	}
}
