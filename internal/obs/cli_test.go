package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestCLIRegisterOnCallerMux is the daemons' wiring: the CLI's debug
// surface mounted on a mux the caller owns, next to its own handlers.
// Spans emitted through cli.Tel reach /debug/trace/recent, and with
// sampling on /debug/status carries the series the caller asked for.
func TestCLIRegisterOnCallerMux(t *testing.T) {
	cli, err := CLITelemetry(CLIConfig{
		SampleEvery: time.Hour,
		Sample: SamplerConfig{
			Gauges:   []string{"http.inflight"},
			Counters: []string{"http.requests"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	mux := http.NewServeMux()
	mux.HandleFunc("/search", func(w http.ResponseWriter, r *http.Request) {
		Event(With(r.Context(), cli.Tel), SpanQueryExec, A("q", r.URL.Query().Get("q")))
	})
	cli.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	get(t, srv.URL+"/search?q=wow")
	_, body := get(t, srv.URL+"/debug/trace/recent")
	var spans []SpanRecord
	if err := json.Unmarshal([]byte(body), &spans); err != nil {
		t.Fatalf("trace JSON: %v", err)
	}
	if len(spans) != 1 || spans[0].Name != SpanQueryExec {
		t.Fatalf("recent spans = %+v, want the one %s span", spans, SpanQueryExec)
	}

	cli.Reg.Counter("http.requests").Add(7)
	cli.Sampler.Sample()
	_, body = get(t, srv.URL+"/debug/status")
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("status JSON: %v", err)
	}
	series := map[string][]Point{}
	for _, s := range st.Series {
		series[s.Name] = s.Points
	}
	if pts := series["http.requests"]; len(pts) != 1 || pts[0].V != 7 {
		t.Fatalf("status series = %+v, want one http.requests point of 7", st.Series)
	}
	if _, ok := series[MetricFrontierDepth]; ok {
		t.Fatalf("status series %+v carry the crawl defaults, not the configured ones", st.Series)
	}
}
