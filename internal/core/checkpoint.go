package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ajaxcrawl/internal/checkpoint"
	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
)

// Checkpointer is the crawler's durable-progress hook. When
// Options.Checkpoint is set, CrawlAll journals every completed page
// through it and consults it before crawling, so a crawl resumed after a
// crash skips already-completed pages and converges to the same state
// set as an uninterrupted run. The one
// mid-page record is a hot-node cache fill, which re-seeds the cache
// when an interrupted page is crawled again.
//
// Implementations must tolerate being called from one process line at a
// time; the parallel crawler opens one Checkpointer per process line
// (see CrawlCheckpoints).
type Checkpointer interface {
	// Completed returns the journaled result of url, if that page
	// finished in a previous (recovered) run or earlier in this one.
	Completed(url string) (*model.Graph, PageMetrics, bool)
	// PageDone durably records a completed page. A non-nil error means
	// durability is broken and fails the crawl: pages reported crawled
	// must never be silently un-journaled.
	PageDone(url string, g *model.Graph, pm PageMetrics) error
	// HotNode records one hot-node cache fill mid-page (best-effort).
	HotNode(url, key, body string) error
	// HotEntries returns journaled hot-node fills for url, used to
	// pre-warm the cache when re-crawling an interrupted page.
	HotEntries(url string) map[string]string
	// Flush pushes buffered records to stable storage.
	Flush() error
	// Close flushes and releases the underlying journal. The owner that
	// opened the Checkpointer closes it — for the parallel crawler that
	// is the process line, on every exit path including panics
	// and cancellation, which is what makes Ctrl-C a graceful flush.
	Close() error
}

// openJournal opens the journal in dir and decodes every recovered
// page's metrics payload. A CRC-intact page frame whose metrics do not
// decode fails the open, naming the page: resuming it with zeroed
// metrics would silently under-count the crawl's aggregate.
func openJournal(ctx context.Context, dir string, opts checkpoint.Options) (*checkpoint.Journal, error) {
	j, err := checkpoint.Open(ctx, dir, opts)
	if err != nil {
		return nil, err
	}
	for _, rec := range j.Pages() {
		if _, err := decodePageMetrics(rec.Metrics); err != nil {
			j.Close()
			return nil, fmt.Errorf("page %s: metrics: %w", rec.URL, err)
		}
	}
	return j, nil
}

// counts lists pm's integer fields in wire order: encodePageMetrics and
// decodePageMetrics walk the same list, so a field added to it is
// written and read alike (TestPageMetricsRoundTrip fails on one left
// out).
func (pm *PageMetrics) counts() [14]*int {
	return [14]*int{&pm.States, &pm.Transitions, &pm.EventsTriggered, &pm.NetworkEvents, &pm.XHRSends,
		&pm.NetworkCalls, &pm.HotNodeHits, &pm.HandlerErrors, &pm.EventsSkipped, &pm.StatesPruned,
		&pm.NearDupMerges, &pm.NearDupCandidates, &pm.Retries, &pm.PagesRecovered}
}

// encodePageMetrics builds a page frame's metrics payload, in
// internal/codec's primitives: the URL string, the counts as uvarints,
// then CrawlTime and NetworkTime in nanoseconds as uvarints.
func encodePageMetrics(pm PageMetrics) []byte {
	var buf bytes.Buffer
	e := codec.NewEncoder(&buf)
	e.String(pm.URL)
	for _, c := range pm.counts() {
		e.Uvarint(uint64(*c))
	}
	e.Uvarint(uint64(pm.CrawlTime))
	e.Uvarint(uint64(pm.NetworkTime))
	return buf.Bytes()
}

// decodePageMetrics reads a metrics payload from untrusted bytes, which
// must hold exactly one PageMetrics. Counts are bounded by
// codec.MaxCount and durations by math.MaxInt64, so no accepted field is
// negative.
func decodePageMetrics(raw []byte) (pm PageMetrics, err error) {
	defer codec.Contain(&err, "decode")
	d := codec.NewDecoder(bytes.NewReader(raw))
	pm.URL = d.String()
	for _, c := range pm.counts() {
		*c = d.Count("metrics")
	}
	pm.CrawlTime, pm.NetworkTime = duration(d), duration(d)
	d.End()
	if d.Err() != nil {
		return PageMetrics{}, d.Err()
	}
	return pm, nil
}

// duration reads a duration in nanoseconds, refusing one past
// math.MaxInt64.
func duration(d *codec.Decoder) time.Duration {
	ns := d.Uvarint()
	if ns > math.MaxInt64 {
		d.Fail(fmt.Errorf("duration %d ns exceeds limit %d", ns, uint64(math.MaxInt64)))
		return 0
	}
	return time.Duration(ns)
}

// frontierDirName is the frontier journal's subdirectory under a
// CrawlCheckpoints root; linePrefix names the per-line journals.
const (
	frontierDirName = "frontier"
	linePrefix      = "line-"
)

// CrawlCheckpoints manages the parallel crawl's durable state under one
// root directory: one journal per process line (line-<i>/) plus a
// frontier journal (frontier/) recording every admitted URL with its
// priority. The per-partition journals of the static-partition era are
// replaced by this layout: pages land in the journal of whichever line
// crawled them, and reads union every line's journal, so resuming with
// a different line count — or after work stealing moved a page between
// lines — still finds every completed page.
//
// One CrawlCheckpoints serves one crawl; open a fresh one per run.
type CrawlCheckpoints struct {
	mu       sync.Mutex
	ctx      context.Context
	dir      string
	journals map[string]*checkpoint.Journal
	frontier *checkpoint.Journal
	// recovered is the frontier snapshot replayed on resume.
	recovered []checkpoint.FrontierRecord
}

// OpenCrawlCheckpoints opens the checkpoint root at dir. With
// resume=false any line and frontier journals from a previous crawl are
// discarded; with resume=true every existing line journal is recovered
// (whatever line count wrote it) along with the frontier snapshot. The
// context supplies telemetry for the journals and the frontier.snapshot
// recovery span.
func OpenCrawlCheckpoints(ctx context.Context, dir string, resume bool) (*CrawlCheckpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint root %s: %w", dir, err)
	}
	c := &CrawlCheckpoints{ctx: ctx, dir: dir, journals: make(map[string]*checkpoint.Journal)}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: checkpoint root %s: %w", dir, err)
	}
	if !resume {
		for _, e := range entries {
			if e.IsDir() && (strings.HasPrefix(e.Name(), linePrefix) || e.Name() == frontierDirName) {
				if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
					return nil, fmt.Errorf("core: checkpoint reset %s: %w", dir, err)
				}
			}
		}
	} else {
		for _, e := range entries {
			if !e.IsDir() || !strings.HasPrefix(e.Name(), linePrefix) {
				continue
			}
			j, jerr := openJournal(ctx, filepath.Join(dir, e.Name()), checkpoint.Options{})
			if jerr != nil {
				c.Close()
				return nil, fmt.Errorf("core: checkpoint %s: %w", e.Name(), jerr)
			}
			c.journals[e.Name()] = j
		}
	}
	// The frontier journal holds only frontier records, so it never
	// reaches a page-count compaction trigger; compaction is moot.
	_, sp := obs.StartSpan(ctx, obs.SpanFrontierSnapshot, obs.A("dir", dir))
	fj, ferr := checkpoint.Open(ctx, filepath.Join(dir, frontierDirName), checkpoint.Options{CompactEvery: -1})
	if ferr != nil {
		sp.End(ferr)
		c.Close()
		return nil, fmt.Errorf("core: frontier journal %s: %w", dir, ferr)
	}
	c.frontier = fj
	c.recovered = fj.FrontierEntries()
	sp.SetAttr("urls", strconv.Itoa(len(c.recovered)))
	sp.SetAttr("pages", strconv.Itoa(c.CompletedPages()))
	sp.End(nil)
	return c, nil
}

// Line returns process line line's Checkpointer: writes go to the
// line's own journal, reads union every recovered and live journal. The
// line closes (flushing) it on every exit path; the returned
// Checkpointer's Close leaves sibling journals open.
func (c *CrawlCheckpoints) Line(line int) (Checkpointer, error) {
	name := linePrefix + strconv.Itoa(line)
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.journals[name]
	if j == nil {
		var err error
		j, err = checkpoint.Open(c.ctx, filepath.Join(c.dir, name), checkpoint.Options{})
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint %s: %w", name, err)
		}
		c.journals[name] = j
	}
	return &lineCheckpointer{c: c, j: j}, nil
}

// FrontierAdmitted journals one frontier admission (buffered; call
// FlushFrontier after the admission batch).
func (c *CrawlCheckpoints) FrontierAdmitted(rec checkpoint.FrontierRecord) error {
	return c.frontier.FrontierAdmitted(rec)
}

// FlushFrontier pushes buffered frontier records to stable storage.
func (c *CrawlCheckpoints) FlushFrontier() error { return c.frontier.Flush() }

// RecoveredFrontier returns the frontier snapshot replayed on open —
// every URL a previous run admitted, with its priority, so a resumed
// crawl rebuilds the same prioritized frontier.
func (c *CrawlCheckpoints) RecoveredFrontier() []checkpoint.FrontierRecord {
	return c.recovered
}

// CompletedPages counts journaled pages across every line journal.
func (c *CrawlCheckpoints) CompletedPages() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, j := range c.journals {
		n += j.CompletedPages()
	}
	return n
}

// snapshotJournals returns the current journal set for a union read.
func (c *CrawlCheckpoints) snapshotJournals() []*checkpoint.Journal {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*checkpoint.Journal, 0, len(c.journals))
	for _, j := range c.journals {
		out = append(out, j)
	}
	return out
}

// completed is the union Completed across every line journal.
func (c *CrawlCheckpoints) completed(url string) (*model.Graph, PageMetrics, bool) {
	for _, j := range c.snapshotJournals() {
		if rec, ok := j.Completed(url); ok {
			pm, _ := decodePageMetrics(rec.Metrics) // decoded when the journal opened
			return rec.Graph, pm, true
		}
	}
	return nil, PageMetrics{}, false
}

// hotEntries is the union HotEntries across every line journal: an
// interrupted page's cache fills live in whichever journals its earlier
// attempts wrote, possibly several when restarts moved it across lines.
func (c *CrawlCheckpoints) hotEntries(url string) map[string]string {
	var out map[string]string
	for _, j := range c.snapshotJournals() {
		for k, v := range j.HotEntries(url) {
			if out == nil {
				out = make(map[string]string)
			}
			if _, dup := out[k]; !dup {
				out[k] = v
			}
		}
	}
	return out
}

// Close closes every line journal and the frontier journal, returning
// the first error. Call after the crawl fully drains.
func (c *CrawlCheckpoints) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var first error
	for _, j := range c.journals {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	if c.frontier != nil {
		if err := c.frontier.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// lineCheckpointer is one process line's view of CrawlCheckpoints:
// reads union all journals, writes land in the line's own.
type lineCheckpointer struct {
	c *CrawlCheckpoints
	j *checkpoint.Journal
}

func (l *lineCheckpointer) Completed(url string) (*model.Graph, PageMetrics, bool) {
	return l.c.completed(url)
}

func (l *lineCheckpointer) PageDone(url string, g *model.Graph, pm PageMetrics) error {
	return l.j.PageDone(checkpoint.PageRecord{URL: url, Graph: g, Metrics: encodePageMetrics(pm)})
}

func (l *lineCheckpointer) HotNode(url, key, body string) error {
	return l.j.HotNode(url, key, body)
}

func (l *lineCheckpointer) HotEntries(url string) map[string]string {
	return l.c.hotEntries(url)
}

func (l *lineCheckpointer) Flush() error { return l.j.Flush() }

func (l *lineCheckpointer) Close() error { return l.j.Close() }
