package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ajaxcrawl/internal/checkpoint"
	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/model"
)

// Checkpoint is a crawl's durable progress: one append-only journal in
// the checkpoint root, shared by every process line. With
// Options.Checkpoint set, CrawlAll journals every completed page into it
// and consults it before crawling, so a crawl resumed after a crash
// skips already-completed pages — whichever line takes them — and
// converges to the same state set as an uninterrupted run. The URL list
// itself is the precrawl's (precrawl.gob), not the journal's.
//
// Open one with OpenCheckpoint before the crawl starts, place it in the
// Options every line's crawler is built with, and Close it after the
// crawl drains.
type Checkpoint struct {
	j *checkpoint.Journal
}

// linePrefix names the per-process-line journal directories an earlier
// build kept in the checkpoint root.
const linePrefix = "line-"

// OpenCheckpoint opens the checkpoint root at dir. With resume=false a
// previous crawl's journal is discarded; with resume=true it is
// recovered, and every recovered page's metrics payload is decoded: a
// CRC-intact page frame whose metrics do not decode fails the open,
// naming the page, since resuming it with zeroed metrics would silently
// under-count the crawl's aggregate. A root that holds an earlier
// build's per-line journals (line-<i>/) is refused on resume and cleared
// on a fresh run. Other entries of dir are left alone. The context
// supplies telemetry for the journal.
func OpenCheckpoint(ctx context.Context, dir string, resume bool) (*Checkpoint, error) {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("core: checkpoint root %s: %w", dir, err)
	}
	for _, e := range entries {
		if !e.IsDir() || !strings.HasPrefix(e.Name(), linePrefix) {
			continue
		}
		old := filepath.Join(dir, e.Name())
		if resume {
			return nil, fmt.Errorf("core: checkpoint %s: a per-line journal, written by another build; "+
				"resume with that build, or crawl again without -resume", old)
		}
		if err := os.RemoveAll(old); err != nil {
			return nil, fmt.Errorf("core: checkpoint reset %s: %w", dir, err)
		}
	}
	j, err := checkpoint.Open(ctx, dir, resume)
	if err != nil {
		return nil, err
	}
	for _, rec := range j.Pages() {
		if _, err := decodePageMetrics(rec.Metrics); err != nil {
			j.Close()
			return nil, fmt.Errorf("core: checkpoint %s: page %s: metrics: %w", dir, rec.URL, err)
		}
	}
	return &Checkpoint{j: j}, nil
}

// Completed returns the journaled result of url, if that page finished
// in a previous (recovered) run or earlier in this one.
func (c *Checkpoint) Completed(url string) (*model.Graph, PageMetrics, bool) {
	rec, ok := c.j.Completed(url)
	if !ok {
		return nil, PageMetrics{}, false
	}
	pm, _ := decodePageMetrics(rec.Metrics) // decoded when the journal opened, or encoded by PageDone
	return rec.Graph, pm, true
}

// PageDone durably records a completed page. A non-nil error means
// durability is broken and fails the crawl: pages reported crawled must
// never be silently un-journaled.
func (c *Checkpoint) PageDone(url string, g *model.Graph, pm PageMetrics) error {
	return c.j.PageDone(checkpoint.PageRecord{URL: url, Graph: g, Metrics: encodePageMetrics(pm)})
}

// CompletedPages counts the journaled pages.
func (c *Checkpoint) CompletedPages() int { return c.j.CompletedPages() }

// Close syncs and closes the journal. Call after the crawl fully drains.
func (c *Checkpoint) Close() error { return c.j.Close() }

// counts lists pm's integer fields in wire order: encodePageMetrics and
// decodePageMetrics walk the same list, so a field added to it is
// written and read alike (TestPageMetricsRoundTrip fails on one left
// out).
func (pm *PageMetrics) counts() [13]*int {
	return [13]*int{&pm.States, &pm.Transitions, &pm.EventsTriggered, &pm.NetworkEvents, &pm.XHRSends,
		&pm.NetworkCalls, &pm.HotNodeHits, &pm.HandlerErrors, &pm.StatesPruned,
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
