package obs

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// RegisterDebug mounts the telemetry endpoints on mux:
//
//	/debug/metrics        registry snapshot as JSON (?format=prom for text)
//	/debug/metrics/prom   Prometheus text exposition format
//	/debug/trace/recent   the ring sink's latest spans as JSON (?n=100)
//	/debug/pprof/...      the standard net/http/pprof profiling handlers
//
// reg may be nil (empty snapshots) and ring may be nil (trace endpoint
// returns an empty list).
func RegisterDebug(mux *http.ServeMux, reg *Registry, ring *RingSink) {
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := reg.Snapshot()
		if r.URL.Query().Get("format") == "prom" {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = snap.WritePrometheus(w)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		b, err := snap.MarshalJSONIndent()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(b)
	})
	mux.HandleFunc("/debug/metrics/prom", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/debug/trace/recent", func(w http.ResponseWriter, r *http.Request) {
		n := 100
		if v := r.URL.Query().Get("n"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil {
				n = parsed
			}
		}
		spans := []SpanRecord{}
		if ring != nil {
			if recent := ring.Recent(n); recent != nil {
				spans = recent
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(spans)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// InstrumentHandler wraps an http.Handler with request telemetry: an
// http.requests counter, an http.errors counter (status >= 500), an
// http.inflight gauge and an http.latency histogram — the live-traffic
// view ytserve exposes next to its debug endpoints.
func InstrumentHandler(reg *Registry, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reg.Counter("http.requests").Inc()
		inflight := reg.Gauge("http.inflight")
		inflight.Add(1)
		defer inflight.Add(-1)
		h := reg.Histogram("http.latency")
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		h.ObserveDuration(time.Since(start))
		if sw.status >= 500 {
			reg.Counter("http.errors").Inc()
		}
	})
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}
