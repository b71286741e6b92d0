package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func statusFixture() (StatusSource, *Registry) {
	reg := NewRegistry()
	start := time.Unix(1000, 0).UTC()
	reg.now = func() time.Time { return start.Add(10 * time.Second) }
	reg.Gauge(MetricPagesTotal).Set(40)
	reg.Counter(MetricPagesDone).Add(20)
	reg.Gauge(MetricLines).Set(4)
	reg.Gauge(MetricLinesBusy).Set(3)
	reg.Gauge(MetricFrontierDepth).Set(17)
	return StatusSource{Reg: reg, StartedAt: start}, reg
}

func TestStatusSnapshotProgressMath(t *testing.T) {
	src, _ := statusFixture()
	st := src.Snapshot()
	if st.PagesDone != 20 || st.PagesTotal != 40 || st.Done {
		t.Fatalf("progress = %d/%d done=%v, want 20/40 not done", st.PagesDone, st.PagesTotal, st.Done)
	}
	if st.ElapsedSec != 10 {
		t.Errorf("elapsed = %v, want 10", st.ElapsedSec)
	}
	if st.Utilization != 0.75 {
		t.Errorf("utilization = %v, want 0.75", st.Utilization)
	}
	if st.PagesPerSec != 2 {
		t.Errorf("rate = %v, want 2 pages/s", st.PagesPerSec)
	}
	// 20 pages left at 2/s.
	if st.ETASec != 10 {
		t.Errorf("eta = %v, want 10", st.ETASec)
	}
	if st.FrontierDepth != 17 {
		t.Errorf("frontier depth = %d, want 17", st.FrontierDepth)
	}
}

func TestStatusSnapshotUnknownETA(t *testing.T) {
	reg := NewRegistry()
	src := StatusSource{Reg: reg, StartedAt: time.Unix(1000, 0)}
	st := src.Snapshot()
	if st.ETASec != -1 {
		t.Fatalf("eta with no progress = %v, want -1", st.ETASec)
	}
	if st.Done {
		t.Fatal("empty crawl must not report done")
	}
}

func TestStatusSnapshotDone(t *testing.T) {
	src, reg := statusFixture()
	reg.Counter(MetricPagesDone).Add(20) // 40/40
	st := src.Snapshot()
	if !st.Done {
		t.Fatal("40/40 must report done")
	}
}

func TestStatusEndpointJSONAndHTML(t *testing.T) {
	src, reg := statusFixture()
	sampler := NewSampler(reg, SamplerConfig{
		Clock:     clockFunc(reg.Now),
		Gauges:    []string{MetricFrontierDepth},
		Counters:  []string{},
		NoRuntime: true,
	})
	sampler.Sample()
	src.Sampler = sampler

	mux := http.NewServeMux()
	RegisterStatus(mux, src)

	// JSON by default.
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	var st Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	if st.PagesDone != 20 || len(st.Series) != 1 || st.Series[0].Name != MetricFrontierDepth {
		t.Fatalf("status = %+v, want 20 pages done and the sampled frontier series", st)
	}

	// HTML on ?format=html.
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/status?format=html", nil))
	body := rec.Body.String()
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type = %q", ct)
	}
	for _, want := range []string{"20 / 40", "3 / 4", "frontier.depth"} {
		if !strings.Contains(body, want) {
			t.Errorf("HTML status missing %q:\n%s", want, body)
		}
	}

	// HTML via Accept negotiation (a browser hitting the endpoint).
	req := httptest.NewRequest("GET", "/debug/status", nil)
	req.Header.Set("Accept", "text/html,application/xhtml+xml")
	rec = httptest.NewRecorder()
	mux.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("Accept text/html content type = %q", ct)
	}
}

// clockFunc adapts a func to the sampler Clock.
type clockFunc func() time.Time

func (f clockFunc) Now() time.Time { return f() }

func TestSparkline(t *testing.T) {
	if got := sparkline(nil, 10); got != "(no samples)" {
		t.Fatalf("empty sparkline = %q", got)
	}
	pts := []Point{{V: 0}, {V: 4}, {V: 8}}
	got := sparkline(pts, 10)
	if []rune(got)[0] != '▁' || []rune(got)[2] != '█' {
		t.Fatalf("sparkline = %q, want low first, full last", got)
	}
	// Width truncation keeps the newest points.
	pts = []Point{{V: 1}, {V: 2}, {V: 3}, {V: 4}}
	if got := sparkline(pts, 2); len([]rune(got)) != 2 {
		t.Fatalf("truncated sparkline = %q, want 2 runes", got)
	}
}
