package checkpoint

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedJournal builds a valid journal file's bytes by writing through
// the real API and reading the WAL back.
func fuzzSeedJournal(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	j, err := Open(context.Background(), dir, false)
	if err != nil {
		f.Fatalf("seed journal: %v", err)
	}
	for _, u := range []string{"seed", "seed-2"} {
		if err := j.PageDone(PageRecord{URL: u, Graph: testGraph(u, 2), Metrics: []byte("m")}); err != nil {
			f.Fatalf("seed journal: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatalf("seed journal: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, walFileName))
	if err != nil {
		f.Fatalf("seed journal: %v", err)
	}
	return data
}

// FuzzJournalReplay feeds arbitrary bytes to recovery as the WAL file.
// Invariants: Open never panics; it fails only for a header with the
// journal's magic and another version, and then leaves the bytes as they
// were; otherwise corruption only shortens what is recovered, and the
// recovered journal accepts appends that survive a further reopen.
func FuzzJournalReplay(f *testing.F) {
	valid := fuzzSeedJournal(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte(journalMagic))                           // header torn mid-magic
	f.Add(append([]byte(journalMagic), journalVersion))   // header only
	f.Add(append([]byte(journalMagic), journalVersion+9)) // another build's version: refused
	f.Add([]byte("XXXX\x01 garbage body"))                // bad magic
	if len(valid) > 10 {
		f.Add(valid[:len(valid)-7]) // torn tail mid-frame
		f.Add(valid[:headerLen+3])  // torn frame header
		corrupt := append([]byte(nil), valid...)
		corrupt[len(corrupt)-1] ^= 0x55 // CRC mismatch in last frame
		f.Add(corrupt)
	}
	// Frame header promising a huge payload the file doesn't back.
	lying := append([]byte(journalMagic), journalVersion)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxFramePayload)
	binary.LittleEndian.PutUint32(hdr[4:8], 0xDEADBEEF)
	f.Add(append(lying, hdr[:]...))
	// CRC-intact frame whose payload lies about an inner field length.
	badField := []byte{recPageDone, 0xFF, 0xFF, 0xFF, 0x7F}
	var fh [8]byte
	binary.LittleEndian.PutUint32(fh[0:4], uint32(len(badField)))
	binary.LittleEndian.PutUint32(fh[4:8], crc32.Checksum(badField, crcTable))
	f.Add(append(append(append([]byte(journalMagic), journalVersion), fh[:]...), badField...))
	// A CRC-intact frame of a retired record type: a version 2 journal's
	// state hash, refused with its file (as is a version 4 journal, which
	// a process line wrote), and the same frame under this version's
	// header, a tear.
	retired := append([]byte{2, 1, 'u'}, make([]byte, 32)...)
	binary.LittleEndian.PutUint32(fh[0:4], uint32(len(retired)))
	binary.LittleEndian.PutUint32(fh[4:8], crc32.Checksum(retired, crcTable))
	for _, version := range []byte{2, 4, journalVersion} {
		f.Add(append(append(append([]byte(journalMagic), version), fh[:]...), retired...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFileName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(context.Background(), dir, true)
		otherBuild := len(data) >= headerLen && string(data[:len(journalMagic)]) == journalMagic &&
			data[len(journalMagic)] != journalVersion
		if otherBuild {
			if err == nil {
				j.Close()
				t.Fatal("Open replayed a journal of another version")
			}
			if got, _ := os.ReadFile(filepath.Join(dir, walFileName)); !bytes.Equal(got, data) {
				t.Fatal("Open refused a journal of another version but changed its bytes")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open rejected arbitrary WAL bytes: %v", err)
		}
		before := j.CompletedPages()
		if err := j.PageDone(PageRecord{URL: "after-recover", Graph: testGraph("after-recover", 1)}); err != nil {
			t.Fatalf("PageDone after recovery: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		j2, err := Open(context.Background(), dir, true)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer j2.Close()
		if _, ok := j2.Completed("after-recover"); !ok {
			t.Fatal("append after recovery lost on reopen")
		}
		if got := j2.CompletedPages(); got < before {
			t.Fatalf("reopen recovered %d pages, fewer than the %d first recovery saw", got, before)
		}
	})
}
