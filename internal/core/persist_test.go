package core

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ajaxcrawl/internal/checkpoint"
	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/webapp"
)

// TestPageMetricsRoundTrip: every numeric PageMetrics field, each set to
// a distinct value, survives the journal's metrics payload — a counter
// added to PageMetrics but not to counts fails here. The payload holds
// 13 counts; one with the 14 a version 5 journal wrote is refused.
func TestPageMetricsRoundTrip(t *testing.T) {
	pm := PageMetrics{URL: "/watch?v=x"}
	if len(setNumericFields(t, &pm)) == 0 {
		t.Fatal("PageMetrics has no numeric fields — test is vacuous")
	}
	got, err := decodePageMetrics(encodePageMetrics(pm))
	if err != nil {
		t.Fatal(err)
	}
	if got != pm {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, pm)
	}
	for n, wantOK := range map[int]bool{13: true, 14: false} {
		var buf bytes.Buffer
		e := codec.NewEncoder(&buf)
		e.String(pm.URL)
		for i := range n + 2 { // the counts, then the two durations
			e.Uvarint(uint64(i + 1))
		}
		if _, err := decodePageMetrics(buf.Bytes()); (err == nil) != wantOK {
			t.Errorf("%d counts: decode err = %v, want ok=%v", n, err, wantOK)
		}
	}
}

// metricsPayload writes a metrics payload by hand: url, then every count
// set to count and both durations to ns.
func metricsPayload(url string, count, ns uint64) []byte {
	var buf bytes.Buffer
	e := codec.NewEncoder(&buf)
	e.String(url)
	for range (&PageMetrics{}).counts() {
		e.Uvarint(count)
	}
	e.Uvarint(ns)
	e.Uvarint(ns)
	return buf.Bytes()
}

// overflowPayloads are metrics payloads past the decoder's bounds: a
// count above codec.MaxCount or a duration above math.MaxInt64 (1<<63,
// read as an int, is negative).
func overflowPayloads(url string) [][]byte {
	return [][]byte{
		metricsPayload(url, 1<<63, 1<<63),
		metricsPayload(url, codec.MaxCount+1, 0),
		metricsPayload(url, 1, 1<<63),
	}
}

// TestUndecodableMetricsFailTheResume: a CRC-intact page frame whose
// metrics payload is cut short, or holds a count or duration that does
// not fit, fails the resume, naming the page, instead of resuming it
// with zeroed or negative metrics.
func TestUndecodableMetricsFailTheResume(t *testing.T) {
	ctx := context.Background()
	g := model.NewGraph("/watch?v=cut")
	g.AddState([32]byte{1}, "text", 0)
	payload := encodePageMetrics(PageMetrics{URL: g.URL, States: 1, EventsTriggered: 300, CrawlTime: 7e6})
	bad := overflowPayloads(g.URL)
	for _, n := range []int{0, 1, len(payload) / 2, len(payload) - 1} {
		bad = append(bad, payload[:n])
	}
	for i, metrics := range bad {
		root := t.TempDir()
		j, err := checkpoint.Open(ctx, root, false)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.PageDone(checkpoint.PageRecord{URL: g.URL, Graph: g, Metrics: metrics}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenCheckpoint(ctx, root, true); err == nil || !strings.Contains(err.Error(), g.URL) {
			t.Errorf("bad payload %d: OpenCheckpoint err = %v, want one naming %s", i, err, g.URL)
		}
	}
}

// FuzzDecodePageMetrics feeds the metrics payload reader arbitrary
// bytes, seeded with a real payload, its truncations and payloads whose
// fields overflow an int. It never panics, every field it accepts is
// non-negative, and what it accepts encodes to a payload that decodes
// to the same metrics.
func FuzzDecodePageMetrics(f *testing.F) {
	pm := PageMetrics{URL: "/watch?v=seed"}
	setNumericFields(f, &pm)
	seed := encodePageMetrics(pm)
	for _, n := range []int{len(seed), len(seed) - 1, len(seed) / 2, 1, 0} {
		f.Add(seed[:n])
	}
	for _, p := range overflowPayloads(pm.URL) {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		pm, err := decodePageMetrics(data)
		if err != nil {
			return
		}
		v := reflect.ValueOf(pm)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.CanInt() && f.Int() < 0 {
				t.Fatalf("accepted %s = %d", v.Type().Field(i).Name, f.Int())
			}
		}
		again, err := decodePageMetrics(encodePageMetrics(pm))
		if err != nil || again != pm {
			t.Fatalf("accepted %+v does not round-trip: %+v, %v", pm, again, err)
		}
	})
}

// TestPersistedBytesAreStable: saving what was loaded writes the bytes
// that were loaded, for the models file and a precrawl — every map is
// written in sorted key order, not in iteration order.
func TestPersistedBytesAreStable(t *testing.T) {
	site, f := newSiteFetcher(20, 7)
	pre, err := (&Precrawler{Fetcher: f, StartURL: webapp.WatchURL(site.Video(0).ID), MaxPages: 8}).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	graphs, _, err := New(f, Options{UseHotNode: true, MaxStates: 4}).CrawlAll(context.Background(), pre.URLs[:4])
	if err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		file           string
		saveLoadToSave func(first, second string) error
	}{
		"models": {model.ModelFileName, func(first, second string) error {
			if err := model.SaveAll(first, graphs); err != nil {
				return err
			}
			loaded, err := model.LoadAll(first)
			if err != nil {
				return err
			}
			return model.SaveAll(second, loaded)
		}},
		"precrawl": {precrawlFileName, func(first, second string) error {
			if err := pre.Save(first); err != nil {
				return err
			}
			loaded, err := LoadPrecrawl(first)
			if err != nil {
				return err
			}
			return loaded.Save(second)
		}},
	} {
		first, second := t.TempDir(), t.TempDir()
		if err := tc.saveLoadToSave(first, second); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a, errA := os.ReadFile(filepath.Join(first, tc.file))
		b, errB := os.ReadFile(filepath.Join(second, tc.file))
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v, %v", name, errA, errB)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: Save → Load → Save wrote %d bytes that differ from the first %d", name, len(b), len(a))
		}
	}
}
