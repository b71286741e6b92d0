package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.Gauge("g").Add(1)
				r.Gauge("g").Add(-1)
				r.Histogram("h").Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := r.Snapshot().Histograms["h"].Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestNilRegistryAndMetricsAreNoops(t *testing.T) {
	var r *Registry
	r.Counter("x").Add(5)
	r.Gauge("x").Set(5)
	r.Histogram("x").Observe(1)
	snap := r.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var tel *Telemetry
	tel.Counter("x").Inc()
	tel.Histogram("x").ObserveDuration(time.Second)
	if tel.Registry() != nil {
		t.Fatal("nil telemetry must have nil registry")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", 0.010, 0.020, 0.040, 0.080)
	// 100 samples uniformly in the 0–10ms bucket, 10 in 10–20ms.
	for i := 0; i < 100; i++ {
		h.Observe(0.005)
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.015)
	}
	s := r.Snapshot().Histograms["lat"]
	if s.Count != 110 {
		t.Fatalf("count = %d, want 110", s.Count)
	}
	// p50 falls in the first bucket (0..0.010); p99 in the second.
	if s.P50 <= 0 || s.P50 > 0.010 {
		t.Fatalf("p50 = %v, want in (0, 0.010]", s.P50)
	}
	if s.P99 <= 0.010 || s.P99 > 0.020 {
		t.Fatalf("p99 = %v, want in (0.010, 0.020]", s.P99)
	}
	// The overflow bucket is cumulative and closes at Count.
	last := s.Buckets[len(s.Buckets)-1]
	if !math.IsInf(last.Le, 1) || last.Count != 110 {
		t.Fatalf("+Inf bucket = %+v", last)
	}
	if s.Min != 0.005 || s.Max != 0.015 {
		t.Fatalf("min/max = %v/%v, want 0.005/0.015", s.Min, s.Max)
	}
}

// TestHistogramQuantileOverflowSaturation pins the fix for quantile
// saturation: when all (or the tail) mass sits in the +Inf overflow
// bucket, quantiles must report the observed maximum, not the largest
// finite bucket bound.
func TestHistogramQuantileOverflowSaturation(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("slow", 0.1, 0.2)
	for i := 0; i < 10; i++ {
		h.Observe(5.0) // every sample beyond the last finite bound
	}
	s := r.Snapshot().Histograms["slow"]
	if s.P50 != 5.0 || s.P99 != 5.0 {
		t.Fatalf("overflow quantiles = p50 %v p99 %v, want 5.0 (max), not the 0.2 bound", s.P50, s.P99)
	}
	if s.Min != 5.0 || s.Max != 5.0 {
		t.Fatalf("min/max = %v/%v, want 5/5", s.Min, s.Max)
	}

	// Interpolated estimates are clamped to the observed range: one
	// tiny sample in a wide first bucket cannot report below min...
	h2 := r.Histogram("fast", 1.0)
	h2.Observe(0.5)
	s2 := r.Snapshot().Histograms["fast"]
	if s2.P50 != 0.5 || s2.P99 != 0.5 {
		t.Fatalf("single-sample quantiles = p50 %v p99 %v, want clamped to 0.5", s2.P50, s2.P99)
	}

	// ...and an empty histogram stays all-zero.
	r.Histogram("empty", 1.0)
	s3 := r.Snapshot().Histograms["empty"]
	if s3.Min != 0 || s3.Max != 0 || s3.P99 != 0 {
		t.Fatalf("empty histogram snapshot = %+v, want zeros", s3)
	}
}

// TestRegistryClockInjectable pins Snapshot.TakenAt to the injected
// clock, the byte-stability hook for report golden tests.
func TestRegistryClockInjectable(t *testing.T) {
	r := NewRegistry()
	fixed := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	r.now = func() time.Time { return fixed }
	if got := r.Snapshot().TakenAt; !got.Equal(fixed) {
		t.Fatalf("TakenAt = %v, want %v", got, fixed)
	}
	r.now = nil
	if got := r.Snapshot().TakenAt; got.Equal(fixed) {
		t.Fatal("a nil clock must restore the wall clock")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("crawl.events").Add(42)
	r.Gauge("partition.inflight").Set(3)
	r.Histogram("fetch.latency", 0.1, 1).Observe(0.05)
	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back map[string]interface{}
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("snapshot JSON not parseable: %v", err)
	}
	if back["counters"].(map[string]interface{})["crawl.events"].(float64) != 42 {
		t.Fatalf("counter lost in JSON: %s", b)
	}
}

// TestPrometheusGolden pins the text exposition rendering byte for byte.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("crawl.events").Add(7)
	r.Counter("crawl.pages").Add(2)
	r.Gauge("partition.inflight").Set(1)
	// Power-of-two samples keep the float sum exact, so the golden text
	// cannot drift with accumulation order.
	h := r.Histogram("fetch.latency", 0.5, 2)
	h.Observe(0.25)
	h.Observe(0.25)
	h.Observe(1)
	h.Observe(4)

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE ajaxcrawl_crawl_events counter
ajaxcrawl_crawl_events 7
# TYPE ajaxcrawl_crawl_pages counter
ajaxcrawl_crawl_pages 2
# TYPE ajaxcrawl_partition_inflight gauge
ajaxcrawl_partition_inflight 1
# TYPE ajaxcrawl_fetch_latency histogram
ajaxcrawl_fetch_latency_bucket{le="0.5"} 2
ajaxcrawl_fetch_latency_bucket{le="2"} 3
ajaxcrawl_fetch_latency_bucket{le="+Inf"} 4
ajaxcrawl_fetch_latency_sum 5.5
ajaxcrawl_fetch_latency_count 4
# TYPE ajaxcrawl_fetch_latency_min gauge
ajaxcrawl_fetch_latency_min 0.25
# TYPE ajaxcrawl_fetch_latency_max gauge
ajaxcrawl_fetch_latency_max 4
`
	if got := sb.String(); got != want {
		t.Fatalf("prometheus rendering drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
