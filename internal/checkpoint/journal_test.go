package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/dom"
	"ajaxcrawl/internal/model"
)

// testGraph builds a tiny application model for url with n states.
func testGraph(url string, n int) *model.Graph {
	g := model.NewGraph(url)
	for i := 0; i < n; i++ {
		var h dom.Hash
		h[0] = byte(i + 1)
		h[1] = byte(len(url))
		g.AddState(h, "state text", i)
	}
	return g
}

func mustOpen(t *testing.T, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(context.Background(), dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: -1})
	if err := j.HotNode("u1", "loadVideos(2)", "<div>page 2</div>"); err != nil {
		t.Fatalf("HotNode: %v", err)
	}
	for _, u := range []string{"u1", "u2", "u3"} {
		rec := PageRecord{URL: u, Graph: testGraph(u, 3), Metrics: []byte("metrics:" + u)}
		if err := j.PageDone(rec); err != nil {
			t.Fatalf("PageDone(%s): %v", u, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	ri := j2.recovered
	if ri.Pages != 3 || ri.HotEntries != 1 {
		t.Fatalf("Recovered = %+v, want 3 pages, 1 hot entry", ri)
	}
	if ri.TruncatedBytes != 0 {
		t.Fatalf("clean close recovered TruncatedBytes=%d, want 0", ri.TruncatedBytes)
	}
	for _, u := range []string{"u1", "u2", "u3"} {
		rec, ok := j2.Completed(u)
		if !ok {
			t.Fatalf("Completed(%s) missing after recovery", u)
		}
		if rec.Graph.URL != u || len(rec.Graph.States) != 3 {
			t.Fatalf("Completed(%s): graph URL=%q states=%d", u, rec.Graph.URL, len(rec.Graph.States))
		}
		if string(rec.Metrics) != "metrics:"+u {
			t.Fatalf("Completed(%s): metrics %q", u, rec.Metrics)
		}
	}
	hot := j2.HotEntries("u1")
	if hot["loadVideos(2)"] != "<div>page 2</div>" {
		t.Fatalf("HotEntries(u1) = %v", hot)
	}
	// Returned map is a copy: mutating it must not touch the journal.
	hot["loadVideos(2)"] = "tampered"
	if j2.HotEntries("u1")["loadVideos(2)"] != "<div>page 2</div>" {
		t.Fatal("HotEntries returned the journal's internal map")
	}
}

func TestJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: -1})
	for _, u := range []string{"a", "b"} {
		if err := j.PageDone(PageRecord{URL: u, Graph: testGraph(u, 1)}); err != nil {
			t.Fatalf("PageDone: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate kill -9 mid-write: a torn frame at the tail (header that
	// promises more payload than exists).
	walPath := filepath.Join(dir, walFileName)
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0xFF, 0x00, 0x00, 0x00, 1, 2, 3, 4, 0xDE, 0xAD}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := mustOpen(t, dir, Options{CompactEvery: -1})
	ri := j2.recovered
	if ri.Pages != 2 {
		t.Fatalf("recovered %d pages, want 2", ri.Pages)
	}
	if ri.TruncatedBytes != int64(len(torn)) {
		t.Fatalf("TruncatedBytes=%d, want %d", ri.TruncatedBytes, len(torn))
	}
	// Appends continue from the truncation point.
	if err := j2.PageDone(PageRecord{URL: "c", Graph: testGraph("c", 1)}); err != nil {
		t.Fatalf("PageDone after recovery: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j3 := mustOpen(t, dir, Options{})
	defer j3.Close()
	if got := j3.CompletedPages(); got != 3 {
		t.Fatalf("after re-append recovered %d pages, want 3", got)
	}
	if j3.recovered.TruncatedBytes != 0 {
		t.Fatalf("second recovery truncated %d bytes, want 0", j3.recovered.TruncatedBytes)
	}
}

func TestJournalCorruptFrameTruncatesSuffix(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: -1})
	for _, u := range []string{"a", "b", "c"} {
		if err := j.PageDone(PageRecord{URL: u, Graph: testGraph(u, 1)}); err != nil {
			t.Fatalf("PageDone: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Flip one byte in the last frame's payload: its CRC no longer
	// matches, so recovery must stop before it.
	walPath := filepath.Join(dir, walFileName)
	data, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := j2.recovered.Pages; got != 2 {
		t.Fatalf("recovered %d pages past a corrupt frame, want 2", got)
	}
	if _, ok := j2.Completed("c"); ok {
		t.Fatal("corrupt frame for page c was accepted")
	}
	if j2.recovered.TruncatedBytes == 0 {
		t.Fatal("corrupt suffix reported zero truncated bytes")
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: 2})
	urls := []string{"a", "b", "c", "d", "e"}
	for _, u := range urls {
		if err := j.PageDone(PageRecord{URL: u, Graph: testGraph(u, 2), Metrics: []byte(u)}); err != nil {
			t.Fatalf("PageDone: %v", err)
		}
	}
	// 5 pages at CompactEvery=2 → compactions after b and d; the WAL
	// holds only e's frame, the snapshot a..d.
	st, err := os.Stat(filepath.Join(dir, snapFileName))
	if err != nil {
		t.Fatalf("snapshot missing after compaction: %v", err)
	}
	if st.Size() <= int64(headerLen) {
		t.Fatalf("snapshot is empty (%d bytes)", st.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wst, err := os.Stat(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	if wst.Size() >= st.Size() {
		t.Fatalf("WAL (%d bytes) not truncated below snapshot (%d bytes) by compaction", wst.Size(), st.Size())
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := j2.recovered.Pages; got != len(urls) {
		t.Fatalf("recovered %d pages from snapshot+WAL, want %d", got, len(urls))
	}
	for _, u := range urls {
		rec, ok := j2.Completed(u)
		if !ok || string(rec.Metrics) != u {
			t.Fatalf("Completed(%s) = %+v, %v after compaction", u, rec, ok)
		}
	}
}

func TestJournalReset(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: 1})
	if err := j.PageDone(PageRecord{URL: "a", Graph: testGraph("a", 1)}); err != nil {
		t.Fatalf("PageDone: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2 := mustOpen(t, dir, Options{Reset: true})
	defer j2.Close()
	if got := j2.CompletedPages(); got != 0 {
		t.Fatalf("reset journal recovered %d pages, want 0", got)
	}
	if _, err := os.Stat(filepath.Join(dir, snapFileName)); !os.IsNotExist(err) {
		t.Fatalf("reset left the snapshot behind (err=%v)", err)
	}
}

func TestJournalGarbageFileStartsFresh(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walFileName)
	if err := os.WriteFile(walPath, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir, Options{})
	if got := j.CompletedPages(); got != 0 {
		t.Fatalf("garbage file recovered %d pages", got)
	}
	if j.recovered.TruncatedBytes == 0 {
		t.Fatal("garbage file reported zero truncated bytes")
	}
	if err := j.PageDone(PageRecord{URL: "a", Graph: testGraph("a", 1)}); err != nil {
		t.Fatalf("PageDone on rewritten journal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if _, ok := j2.Completed("a"); !ok {
		t.Fatal("page written after header rewrite was not recovered")
	}
}

// TestJournalFromAnotherBuildIsRefused: a WAL or snapshot whose header
// has the journal's magic and another version — one written by another
// build, such as version 2, whose state records this build no longer
// reads, or version 3, whose page metrics carry one more count — fails
// Open with an error naming the file and both versions,
// and its bytes stay as they were, instead of being wiped as a torn
// file would be. A Reset open still discards it.
func TestJournalFromAnotherBuildIsRefused(t *testing.T) {
	for _, c := range []struct {
		name    string
		version byte
	}{
		{walFileName, 2}, {walFileName, 3}, {walFileName, journalVersion + 1},
		{snapFileName, 2}, {snapFileName, 3}, {snapFileName, journalVersion + 1},
	} {
		name := c.name
		dir := t.TempDir()
		j := mustOpen(t, dir, Options{CompactEvery: -1})
		if err := j.PageDone(PageRecord{URL: "a", Graph: testGraph("a", 2)}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		wal := filepath.Join(dir, walFileName)
		data, err := os.ReadFile(wal)
		if err != nil {
			t.Fatal(err)
		}
		data[len(journalMagic)] = c.version
		path := filepath.Join(dir, name)
		if name != walFileName {
			if err := os.Remove(wal); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(context.Background(), dir, Options{})
		var ve *codec.VersionError
		if !errors.As(err, &ve) || !strings.Contains(err.Error(), path) ||
			!strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d (this build reads %d)", c.version, journalVersion)) {
			t.Fatalf("%s of version %d: Open err = %v, want a refusal naming the file and both versions", name, c.version, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("%s of version %d: bytes changed by the refused Open (err=%v)", name, c.version, err)
		}
		j = mustOpen(t, dir, Options{Reset: true})
		if n := j.CompletedPages(); n != 0 {
			t.Fatalf("%s: reset open recovered %d pages", name, n)
		}
		j.Close()
	}
}

func TestJournalDuplicatePageDoneKeepsLatest(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: -1})
	if err := j.PageDone(PageRecord{URL: "a", Graph: testGraph("a", 1), Metrics: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	if err := j.PageDone(PageRecord{URL: "a", Graph: testGraph("a", 2), Metrics: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	if got := j.CompletedPages(); got != 1 {
		t.Fatalf("CompletedPages=%d after duplicate, want 1", got)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	rec, ok := j2.Completed("a")
	if !ok || string(rec.Metrics) != "v2" || len(rec.Graph.States) != 2 {
		t.Fatalf("duplicate replay kept %+v, want the later record", rec)
	}
}

func TestJournalFrontierRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: -1})
	recs := []FrontierRecord{
		{URL: "u1", Seq: 0, Priority: 0.75},
		{URL: "u2", Seq: 3, Priority: 0.0625},
	}
	for _, r := range recs {
		if err := j.FrontierAdmitted(r); err != nil {
			t.Fatalf("FrontierAdmitted(%s): %v", r.URL, err)
		}
	}
	// Identical re-admission must not grow the journal.
	before := j.walBytes
	if err := j.FrontierAdmitted(recs[0]); err != nil {
		t.Fatalf("re-admit: %v", err)
	}
	if j.walBytes != before {
		t.Fatalf("duplicate frontier record grew the WAL by %d bytes", j.walBytes-before)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := j2.recovered.FrontierURLs; got != 2 {
		t.Fatalf("recovered FrontierURLs = %d, want 2", got)
	}
	got := j2.FrontierEntries()
	if len(got) != 2 || got[0] != recs[0] || got[1] != recs[1] {
		t.Fatalf("FrontierEntries = %+v, want %+v", got, recs)
	}
}

// A frontier frame written before the partition layout was retired
// carries a non-zero partition varint; it must still replay, partition
// ignored, so an old journal resumes without a format bump.
func TestJournalFrontierReplaysPartitionEraFrame(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: -1})
	var payload bytes.Buffer
	e := codec.NewEncoder(&payload)
	e.Uvarint(recFrontier)
	e.String("old")
	e.Uvarint(2) // partition 2
	e.Uvarint(5) // seq 5
	e.Float64(0.25)
	j.mu.Lock()
	err := j.writeFrame(payload.Bytes())
	j.mu.Unlock()
	if err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	want := FrontierRecord{URL: "old", Seq: 5, Priority: 0.25}
	if got := j2.FrontierEntries(); len(got) != 1 || got[0] != want {
		t.Fatalf("FrontierEntries = %+v, want [%+v]", got, want)
	}
}

func TestJournalFrontierSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: 2})
	want := FrontierRecord{URL: "pending", Seq: 1, Priority: 0.5}
	if err := j.FrontierAdmitted(want); err != nil {
		t.Fatalf("FrontierAdmitted: %v", err)
	}
	// Two pages trigger a compaction, which resets the WAL; the
	// frontier record must be carried into the snapshot.
	for _, u := range []string{"a", "b"} {
		if err := j.PageDone(PageRecord{URL: u, Graph: testGraph(u, 1)}); err != nil {
			t.Fatalf("PageDone(%s): %v", u, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	got := j2.FrontierEntries()
	if len(got) != 1 || got[0] != want {
		t.Fatalf("FrontierEntries after compaction = %+v, want [%+v]", got, want)
	}
	if j2.CompletedPages() != 2 {
		t.Fatalf("CompletedPages = %d, want 2", j2.CompletedPages())
	}
}

// TestJournalHotNodesSurviveCompaction: a compaction keeps the hot-node
// fills of a page that has not completed yet, which its re-crawl reads.
func TestJournalHotNodesSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{CompactEvery: 1})
	if err := j.HotNode("interrupted", "k", "v"); err != nil {
		t.Fatalf("HotNode: %v", err)
	}
	if err := j.PageDone(PageRecord{URL: "other", Graph: testGraph("other", 1)}); err != nil {
		t.Fatalf("PageDone: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2 := mustOpen(t, dir, Options{})
	defer j2.Close()
	if got := fmt.Sprint(j2.HotEntries("interrupted")); got != "map[k:v]" {
		t.Fatalf("HotEntries(interrupted) after compaction = %s, want map[k:v]", got)
	}
}

// TestJournalRetiredRecordIsATear: a CRC-intact frame of a retired
// record type (2, an admitted state's hash; 5, its signature) stops
// replay like any undecodable frame, so the page after it is dropped.
func TestJournalRetiredRecordIsATear(t *testing.T) {
	for _, typ := range []uint64{2, 5} {
		dir := t.TempDir()
		j := mustOpen(t, dir, Options{CompactEvery: -1})
		if err := j.PageDone(PageRecord{URL: "a", Graph: testGraph("a", 1)}); err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		e := j.begin(typ, "a")
		e.Fixed(make([]byte, 32))
		err := j.writeFrame(j.payload.Bytes())
		j.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if err := j.PageDone(PageRecord{URL: "b", Graph: testGraph("b", 1)}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		j2 := mustOpen(t, dir, Options{CompactEvery: -1})
		if _, ok := j2.Completed("b"); ok || j2.CompletedPages() != 1 || j2.recovered.TruncatedBytes == 0 {
			t.Fatalf("type %d frame: recovered %d pages, truncated %d bytes; want page a only, the rest cut",
				typ, j2.CompletedPages(), j2.recovered.TruncatedBytes)
		}
		j2.Close()
	}
}
