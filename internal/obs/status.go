package obs

import (
	"encoding/json"
	"fmt"
	"html"
	"net/http"
	"strings"
	"time"
)

// Metric names the status endpoint reads. The crawl pipeline publishes
// them (MPCrawler.Stream); serving daemons simply report
// zeros for the crawl block and live HTTP numbers instead.
const (
	MetricPagesDone     = "crawl.pages.done"
	MetricPagesTotal    = "crawl.pages.total"
	MetricLines         = "crawl.lines"
	MetricLinesBusy     = "crawl.lines.busy"
	MetricFrontierDepth = "frontier.depth"
)

// StatusSource feeds the /debug/status endpoint: the registry for
// instantaneous values, the (optional) sampler for recent series, and
// the process start time for elapsed/ETA arithmetic.
type StatusSource struct {
	Reg       *Registry
	Sampler   *Sampler
	StartedAt time.Time
}

// Status is the live-progress document served by /debug/status — the
// at-a-glance answer to "how far along is this crawl and how fast is it
// moving", refreshed per request from the registry and sampler.
type Status struct {
	Now        time.Time `json:"now"`
	StartedAt  time.Time `json:"started_at"`
	ElapsedSec float64   `json:"elapsed_sec"`

	// Crawl progress (zero while nothing is crawling).
	PagesDone     int64   `json:"pages_done"`
	PagesTotal    int64   `json:"pages_total"`
	Done          bool    `json:"done"`
	Lines         int64   `json:"lines"`
	LinesBusy     int64   `json:"lines_busy"`
	Utilization   float64 `json:"utilization"`
	FrontierDepth int64   `json:"frontier_depth"`
	PagesPerSec   float64 `json:"pages_per_sec"`
	// ETASec extrapolates the remaining pages at the observed rate; -1
	// while unknown (no pages retired yet, or nothing admitted).
	ETASec float64 `json:"eta_sec"`

	// Live HTTP traffic (serving daemons; zero elsewhere).
	HTTPRequests int64 `json:"http_requests"`
	HTTPInflight int64 `json:"http_inflight"`

	// Series are the sampler's retained windows (frontier depth curve,
	// line utilization, runtime stats); nil when no sampler is wired.
	Series []SeriesSnapshot `json:"series,omitempty"`
}

// Snapshot assembles the current status document.
func (src StatusSource) Snapshot() Status {
	now := src.Reg.Now()
	st := Status{
		Now:       now,
		StartedAt: src.StartedAt,

		PagesDone:     src.Reg.Counter(MetricPagesDone).Value(),
		PagesTotal:    src.Reg.Gauge(MetricPagesTotal).Value(),
		Lines:         src.Reg.Gauge(MetricLines).Value(),
		LinesBusy:     src.Reg.Gauge(MetricLinesBusy).Value(),
		FrontierDepth: src.Reg.Gauge(MetricFrontierDepth).Value(),

		HTTPRequests: src.Reg.Counter("http.requests").Value(),
		HTTPInflight: src.Reg.Gauge("http.inflight").Value(),

		ETASec: -1,
		Series: src.Sampler.Snapshot(),
	}
	if !src.StartedAt.IsZero() {
		st.ElapsedSec = now.Sub(src.StartedAt).Seconds()
	}
	if st.Lines > 0 {
		st.Utilization = float64(st.LinesBusy) / float64(st.Lines)
	}
	st.Done = st.PagesTotal > 0 && st.PagesDone >= st.PagesTotal
	if st.ElapsedSec > 0 && st.PagesDone > 0 {
		st.PagesPerSec = float64(st.PagesDone) / st.ElapsedSec
		if st.PagesTotal > 0 {
			st.ETASec = float64(st.PagesTotal-st.PagesDone) / st.PagesPerSec
		}
	}
	return st
}

// RegisterStatus mounts /debug/status on mux: JSON by default, a
// minimal self-refreshing HTML page with ?format=html (or an Accept
// header preferring text/html).
func RegisterStatus(mux *http.ServeMux, src StatusSource) {
	mux.HandleFunc("/debug/status", func(w http.ResponseWriter, r *http.Request) {
		st := src.Snapshot()
		wantHTML := r.URL.Query().Get("format") == "html" ||
			(r.URL.Query().Get("format") == "" && strings.Contains(r.Header.Get("Accept"), "text/html"))
		if wantHTML {
			w.Header().Set("Content-Type", "text/html; charset=utf-8")
			writeStatusHTML(w, st)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(st)
	})
}

// sparkline renders values as a block-character strip, newest right.
func sparkline(pts []Point, width int) string {
	if len(pts) == 0 {
		return "(no samples)"
	}
	if len(pts) > width {
		pts = pts[len(pts)-width:]
	}
	var maxV int64 = 1
	for _, p := range pts {
		if p.V > maxV {
			maxV = p.V
		}
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, p := range pts {
		i := int(p.V * int64(len(levels)-1) / maxV)
		b.WriteRune(levels[i])
	}
	return b.String()
}

// writeStatusHTML renders the minimal human view: a progress table plus
// sparklines of the sampled series.
func writeStatusHTML(w http.ResponseWriter, st Status) {
	fmt.Fprint(w, `<!doctype html><meta charset="utf-8"><meta http-equiv="refresh" content="1">`+
		`<title>ajaxcrawl status</title><style>body{font-family:monospace;margin:2em}`+
		`td{padding:0 1em 0 0}.spark{font-size:1.2em;letter-spacing:-1px}</style><h1>ajaxcrawl status</h1><table>`)
	row := func(k, v string) { fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td></tr>", k, html.EscapeString(v)) }
	pct := ""
	if st.PagesTotal > 0 {
		pct = fmt.Sprintf(" (%.1f%%)", 100*float64(st.PagesDone)/float64(st.PagesTotal))
	}
	row("pages", fmt.Sprintf("%d / %d%s", st.PagesDone, st.PagesTotal, pct))
	row("lines busy", fmt.Sprintf("%d / %d (%.0f%% utilized)", st.LinesBusy, st.Lines, 100*st.Utilization))
	row("frontier depth", fmt.Sprintf("%d", st.FrontierDepth))
	row("rate", fmt.Sprintf("%.2f pages/s", st.PagesPerSec))
	eta := "unknown"
	if st.Done {
		eta = "done"
	} else if st.ETASec >= 0 {
		eta = (time.Duration(st.ETASec * float64(time.Second))).Round(time.Second).String()
	}
	row("eta", eta)
	row("elapsed", (time.Duration(st.ElapsedSec * float64(time.Second))).Round(time.Second).String())
	if st.HTTPRequests > 0 {
		row("http", fmt.Sprintf("%d requests, %d in flight", st.HTTPRequests, st.HTTPInflight))
	}
	fmt.Fprint(w, "</table>")
	for _, s := range st.Series {
		fmt.Fprintf(w, `<p>%s<br><span class="spark">%s</span></p>`,
			html.EscapeString(s.Name), sparkline(s.Points, 120))
	}
}
