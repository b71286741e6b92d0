package checkpoint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

func mustOpen(t *testing.T, dir string, resume bool) *Journal {
	t.Helper()
	j, err := Open(context.Background(), dir, resume)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, true)
	for _, u := range []string{"u1", "u2", "u3"} {
		rec := PageRecord{URL: u, Graph: testGraph(u, 3), Metrics: []byte("metrics:" + u)}
		if err := j.PageDone(rec); err != nil {
			t.Fatalf("PageDone(%s): %v", u, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2 := mustOpen(t, dir, true)
	defer j2.Close()
	ri := j2.recovered
	if ri.Pages != 3 {
		t.Fatalf("Recovered = %+v, want 3 pages", ri)
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
}

func TestJournalTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, true)
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

	j2 := mustOpen(t, dir, true)
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
	j3 := mustOpen(t, dir, true)
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
	j := mustOpen(t, dir, true)
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

	j2 := mustOpen(t, dir, true)
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

// TestJournalReset: a fresh (non-resume) open discards the journal a
// previous crawl left.
func TestJournalReset(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, true)
	if err := j.PageDone(PageRecord{URL: "a", Graph: testGraph("a", 1)}); err != nil {
		t.Fatalf("PageDone: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2 := mustOpen(t, dir, false)
	if got := j2.CompletedPages(); got != 0 {
		t.Fatalf("fresh open recovered %d pages, want 0", got)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j3 := mustOpen(t, dir, true)
	defer j3.Close()
	if got := j3.CompletedPages(); got != 0 {
		t.Fatalf("resume after a fresh open recovered %d pages, want 0", got)
	}
}

func TestJournalGarbageFileStartsFresh(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, walFileName)
	if err := os.WriteFile(walPath, []byte("not a journal at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	j := mustOpen(t, dir, true)
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
	j2 := mustOpen(t, dir, true)
	defer j2.Close()
	if _, ok := j2.Completed("a"); !ok {
		t.Fatal("page written after header rewrite was not recovered")
	}
}

// TestJournalFromAnotherBuildIsRefused: a WAL whose header has the
// journal's magic and another version — one written by another build,
// such as version 2, whose state records this build no longer reads,
// version 3, whose page metrics carry one more count, or version 4, a
// per-line journal with hot-node fill frames, or version 5, whose page
// metrics carry one more count again — fails a resuming Open with an
// error naming the file and both versions, and its bytes stay as they
// were, instead of being wiped as a torn file would be. A fresh open
// still discards it.
func TestJournalFromAnotherBuildIsRefused(t *testing.T) {
	for _, version := range []byte{2, 3, 4, 5, journalVersion + 1} {
		dir := t.TempDir()
		j := mustOpen(t, dir, true)
		if err := j.PageDone(PageRecord{URL: "a", Graph: testGraph("a", 2)}); err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, walFileName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(journalMagic)] = version
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(context.Background(), dir, true)
		var ve *codec.VersionError
		if !errors.As(err, &ve) || !strings.Contains(err.Error(), path) ||
			!strings.Contains(err.Error(), fmt.Sprintf("unsupported version %d (this build reads %d)", version, journalVersion)) {
			t.Fatalf("version %d: Open err = %v, want a refusal naming the file and both versions", version, err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("version %d: bytes changed by the refused Open (err=%v)", version, err)
		}
		j = mustOpen(t, dir, false)
		if n := j.CompletedPages(); n != 0 {
			t.Fatalf("version %d: fresh open recovered %d pages", version, n)
		}
		j.Close()
	}
}

func TestJournalDuplicatePageDoneKeepsLatest(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, true)
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
	j2 := mustOpen(t, dir, true)
	defer j2.Close()
	rec, ok := j2.Completed("a")
	if !ok || string(rec.Metrics) != "v2" || len(rec.Graph.States) != 2 {
		t.Fatalf("duplicate replay kept %+v, want the later record", rec)
	}
}

// TestJournalRetiredRecordIsATear: a CRC-intact frame of a retired
// record type (2, an admitted state's hash; 3, a hot-node cache fill;
// 4, a frontier admission; 5, a state's signature) stops replay like
// any undecodable frame, so the page after it is dropped.
func TestJournalRetiredRecordIsATear(t *testing.T) {
	for _, typ := range []uint64{2, 3, 4, 5} {
		dir := t.TempDir()
		j := mustOpen(t, dir, true)
		if err := j.PageDone(PageRecord{URL: "a", Graph: testGraph("a", 1)}); err != nil {
			t.Fatal(err)
		}
		j.mu.Lock()
		e := j.begin()
		e.Uvarint(typ)
		e.String("a")
		e.Fixed(make([]byte, 32))
		err := j.writeFrame()
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
		j2 := mustOpen(t, dir, true)
		if _, ok := j2.Completed("b"); ok || j2.CompletedPages() != 1 || j2.recovered.TruncatedBytes == 0 {
			t.Fatalf("type %d frame: recovered %d pages, truncated %d bytes; want page a only, the rest cut",
				typ, j2.CompletedPages(), j2.recovered.TruncatedBytes)
		}
		j2.Close()
	}
}

// TestJournalConcurrentPageDone: the process lines share one journal, so
// PageDone from several goroutines at once must leave whole frames only.
// Four writers of 50 pages each, then a reopen recovers all 200 pages
// with their metrics and nothing truncated.
func TestJournalConcurrentPageDone(t *testing.T) {
	const writers, perWriter = 4, 50
	dir := t.TempDir()
	j := mustOpen(t, dir, false)
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				u := fmt.Sprintf("w%d-p%d", w, i)
				if err := j.PageDone(PageRecord{URL: u, Graph: testGraph(u, 1+i%3), Metrics: []byte("m:" + u)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("PageDone: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2 := mustOpen(t, dir, true)
	defer j2.Close()
	if ri := j2.recovered; ri.Pages != writers*perWriter || ri.TruncatedBytes != 0 {
		t.Fatalf("recovered %+v, want %d pages and nothing truncated", ri, writers*perWriter)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perWriter; i++ {
			u := fmt.Sprintf("w%d-p%d", w, i)
			rec, ok := j2.Completed(u)
			if !ok || string(rec.Metrics) != "m:"+u || rec.Graph.URL != u || len(rec.Graph.States) != 1+i%3 {
				t.Fatalf("Completed(%s) = %+v, %v", u, rec, ok)
			}
		}
	}
}
