package obs

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

// CLIConfig is the telemetry surface the commands share: the
// -metrics-addr, -trace, -v, and -sample flags map onto it.
type CLIConfig struct {
	// MetricsAddr, when non-empty, starts a background server with the
	// CLI's debug surface (CLI.Register): /debug/metrics, /debug/status,
	// /debug/trace/recent, pprof. Daemons leave it empty and mount the
	// same surface on their own mux instead.
	MetricsAddr string
	// TracePath, when non-empty, streams every span to a JSONL file.
	TracePath string
	// Verbose prints one line per finished span in ProgressSpans.
	Verbose bool
	// ProgressW receives the -v lines (default os.Stderr).
	ProgressW io.Writer
	// ProgressSpans filters which spans -v prints (empty = all).
	ProgressSpans []string
	// SampleEvery starts the runtime sampler at this cadence when > 0
	// (the -sample flag); call CLI.StartSampler with the command's
	// context to begin the loop.
	SampleEvery time.Duration
	// Sample names the gauges and counters the sampler records; nil
	// slices select the crawl defaults (see SamplerConfig).
	Sample SamplerConfig
}

// CLI bundles a command's wired telemetry: the context Telemetry, its
// registry, the ring sink behind /debug/trace/recent, the sampler (nil
// unless SampleEvery was set), and the flushing Close.
type CLI struct {
	Tel     *Telemetry
	Reg     *Registry
	Ring    *RingSink
	Sampler *Sampler

	cfg     CLIConfig
	started time.Time
	closeFn func() error
}

// CLITelemetry wires a command's telemetry from its flags: a fresh
// registry, a ring buffer (for /debug/trace/recent), plus the optional
// trace file, progress printer, sampler, and debug server.
// CLI.Close flushes the trace file and must run before exit.
func CLITelemetry(cfg CLIConfig) (*CLI, error) {
	reg := NewRegistry()
	ring := NewRingSink(0)
	sinks := MultiSink{ring}
	var fs *FileSink
	if cfg.TracePath != "" {
		var err error
		fs, err = NewFileSink(cfg.TracePath)
		if err != nil {
			return nil, err
		}
		sinks = append(sinks, fs)
	}
	if cfg.Verbose {
		w := cfg.ProgressW
		if w == nil {
			w = os.Stderr
		}
		sinks = append(sinks, NewProgressSink(w, cfg.ProgressSpans...))
	}
	cli := &CLI{
		Tel:     New(reg, sinks),
		Reg:     reg,
		Ring:    ring,
		cfg:     cfg,
		started: time.Now(),
		closeFn: func() error {
			if fs != nil {
				return fs.Close()
			}
			return nil
		},
	}
	if cfg.SampleEvery > 0 {
		cli.Sampler = NewSampler(reg, cfg.Sample)
	}
	if cfg.MetricsAddr != "" {
		mux := http.NewServeMux()
		cli.Register(mux)
		go func() {
			if err := http.ListenAndServe(cfg.MetricsAddr, mux); err != nil {
				fmt.Fprintf(os.Stderr, "obs: debug server: %v\n", err)
			}
		}()
	}
	return cli, nil
}

// Register mounts the CLI's debug surface on mux: RegisterDebug over its
// registry and ring, and RegisterStatus with its sampler and start time.
func (c *CLI) Register(mux *http.ServeMux) {
	RegisterDebug(mux, c.Reg, c.Ring)
	RegisterStatus(mux, StatusSource{Reg: c.Reg, Sampler: c.Sampler, StartedAt: c.started})
}

// StartSampler begins the sampling loop (no-op when -sample was off);
// it returns immediately and stops when ctx ends.
func (c *CLI) StartSampler(ctx context.Context) {
	if c.Sampler == nil {
		return
	}
	go c.Sampler.Run(ctx, c.cfg.SampleEvery)
}

// Close flushes and closes the trace file, if one was opened.
func (c *CLI) Close() error { return c.closeFn() }

// CrawlProgressSpans are the span names the crawling commands print
// under -v: coarse units, not per-event noise.
var CrawlProgressSpans = []string{SpanPageCrawl, SpanLineCrawl, SpanIndexBuild, SpanQueryExec}
