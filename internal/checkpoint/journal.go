// Package checkpoint implements the durable crawl journal that makes a
// crawl crash-tolerant: an append-only write-ahead log of one process
// line's progress (completed pages with their application models,
// hot-node cache fills) plus periodic compacted snapshots of the
// completed pages.
//
// The format follows the WAL discipline of production crawlers: every
// record is one length-prefixed, CRC-checksummed frame, so a crash —
// including `kill -9` mid-write — leaves at worst a torn tail that
// recovery truncates away. Everything before the tear replays
// losslessly, which is what lets a resumed crawl skip already-completed
// pages and converge to the same state set as an uninterrupted run.
//
// On-disk layout inside one journal directory:
//
//	journal.wal   — header "AJWL"+version, then frames appended in order
//	snapshot.ajcp — same frame stream holding the completed pages and the
//	                hot-node fills of pages not yet completed, written
//	                atomically (temp + rename) at each compaction
//
// Frame: u32le payload length | u32le CRC-32C(payload) | payload.
// Payload: record type byte, then fields in internal/codec's primitives.
//
// Like the index decoders, the read side treats the file as untrusted:
// counts are bounded, pre-allocations capped at what the file actually
// backs, and decoder panics convert to a stop. Replay fails Open only
// for a file of another journal version, which it leaves untouched; any
// other corrupt or truncated suffix only shortens what is recovered.
package checkpoint

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"

	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
)

const (
	// walFileName is the append-only journal inside a journal directory.
	walFileName = "journal.wal"
	// snapFileName is the compacted snapshot of completed pages.
	snapFileName = "snapshot.ajcp"

	journalMagic = "AJWL"
	// journalVersion 1 carried gob-encoded graphs and metrics in its
	// page frames; version 2 also journaled every admitted state's hash
	// and near-dup signature, which no resume read; version 3's page
	// metrics carried a breaker-opens count. A journal of another version
	// is refused, not replayed.
	journalVersion = 4

	// Record types. 2 (an admitted state's hash) and 5 (its near-dup
	// signature) are retired with version 2, and 4 (a frontier admission,
	// only ever written to the frontier journal, never to a line's) with
	// the priority frontier; none is reused.
	recPageDone = 1
	recHotNode  = 3

	// maxFramePayload bounds the length prefix of a frame. A lying
	// header beyond it is treated as a torn tail, not an allocation.
	maxFramePayload = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// headerLen is the byte length of the file header (magic + version).
const headerLen = len(journalMagic) + 1

// Options configure a journal.
type Options struct {
	// CompactEvery compacts the journal into a fresh snapshot after this
	// many page records since the last compaction. <= 0 means the
	// default (16).
	CompactEvery int
	// Reset discards any existing journal in the directory instead of
	// recovering it — a fresh crawl rather than a resume.
	Reset bool
}

// defaultCompactEvery is the page interval between snapshot compactions.
const defaultCompactEvery = 16

// PageRecord is one durably completed page: its URL, its application
// model, and an opaque caller-defined metrics payload (the crawler
// journals its encoded PageMetrics there, so a resumed run's aggregate
// metrics match an uninterrupted one).
type PageRecord struct {
	URL     string
	Graph   *model.Graph
	Metrics []byte
}

// RecoveryInfo summarizes what Open recovered from disk.
type RecoveryInfo struct {
	// Pages is the number of completed pages replayed.
	Pages int
	// HotEntries is the number of hot-node cache fills replayed.
	HotEntries int
	// TruncatedBytes counts journal bytes dropped by torn-tail recovery
	// (0 for a cleanly closed journal).
	TruncatedBytes int64
}

// Journal is one process line's durable crawl log. All methods are safe for
// concurrent use, though a crawl writes from a single process line.
type Journal struct {
	mu  sync.Mutex
	dir string
	tel *obs.Telemetry
	ctx context.Context

	f *os.File
	w *bufio.Writer
	// payload is the frame under construction, reused frame to frame.
	payload bytes.Buffer

	// err is sticky: after any write failure the journal refuses further
	// work, so a half-written frame can never be followed by records the
	// caller believes durable.
	err error

	pages     map[string]PageRecord
	pageOrder []string
	hot       map[string]map[string]string

	compactEvery int
	sinceCompact int
	walBytes     int64
	recovered    RecoveryInfo
}

// Open opens (creating or recovering) the journal in dir. Recovery
// replays the snapshot, then the WAL, stopping at the first torn or
// corrupt frame and truncating the file there so appends continue from
// the last durable record. The context supplies telemetry: recovery
// emits a checkpoint.recover span, writes count into
// crawl.partition.journal_bytes.
func Open(ctx context.Context, dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", dir, err)
	}
	j := &Journal{
		dir:          dir,
		tel:          obs.From(ctx),
		ctx:          ctx,
		pages:        make(map[string]PageRecord),
		hot:          make(map[string]map[string]string),
		compactEvery: opts.CompactEvery,
	}
	if j.compactEvery <= 0 {
		j.compactEvery = defaultCompactEvery
	}
	walPath := filepath.Join(dir, walFileName)
	snapPath := filepath.Join(dir, snapFileName)
	if opts.Reset {
		if err := os.Remove(walPath); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("checkpoint: reset %s: %w", walPath, err)
		}
		if err := os.Remove(snapPath); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("checkpoint: reset %s: %w", snapPath, err)
		}
	}

	_, sp := obs.StartSpan(ctx, obs.SpanCheckpointRecover, obs.A("dir", dir))
	f, goodOffset, err := j.recover(snapPath, walPath)
	sp.SetAttr("pages", strconv.Itoa(j.recovered.Pages))
	sp.SetAttr("truncated_bytes", strconv.FormatInt(j.recovered.TruncatedBytes, 10))
	sp.End(err)
	if err != nil {
		return nil, err
	}
	j.f, j.w, j.walBytes = f, bufio.NewWriterSize(f, 64*1024), goodOffset
	return j, nil
}

// recover replays the snapshot, then the WAL, and returns the WAL open
// for appends at the end of its last intact frame.
func (j *Journal) recover(snapPath, walPath string) (*os.File, int64, error) {
	// Snapshot first: it holds the compacted prefix of the log. A torn
	// snapshot (it is written atomically, so this means outside
	// interference) recovers its intact prefix like the WAL does.
	if err := j.replayFile(snapPath, nil); err != nil {
		return nil, 0, err
	}
	var goodOffset int64
	if err := j.replayFile(walPath, &goodOffset); err != nil {
		return nil, 0, err
	}
	f, err := os.OpenFile(walPath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: open %s: %w", walPath, err)
	}
	fail := func(what string, err error) (*os.File, int64, error) {
		f.Close()
		return nil, 0, fmt.Errorf("checkpoint: %s %s: %w", what, walPath, err)
	}
	st, err := f.Stat()
	if err != nil {
		return fail("open", err)
	}
	if goodOffset < int64(headerLen) {
		// Empty, headerless, or corrupt-from-the-start file: rewrite it.
		j.recovered.TruncatedBytes += st.Size()
		if err := f.Truncate(0); err != nil {
			return fail("reset", err)
		}
		if _, err := f.WriteAt(append([]byte(journalMagic), journalVersion), 0); err != nil {
			return fail("header", err)
		}
		goodOffset = int64(headerLen)
	} else if goodOffset < st.Size() {
		// Torn tail: drop the bytes past the last intact frame so the
		// next append starts on a frame boundary.
		j.recovered.TruncatedBytes += st.Size() - goodOffset
		if err := f.Truncate(goodOffset); err != nil {
			return fail("truncate", err)
		}
	}
	if _, err := f.Seek(goodOffset, io.SeekStart); err != nil {
		return fail("seek", err)
	}
	return f, goodOffset, nil
}

// replayFile replays one frame file into the in-memory maps. Missing
// files are fine (fresh journal). When goodOffset is non-nil it receives
// the offset just past the last intact, decodable frame; replay stops —
// without error — at the first torn or corrupt one. A file of another
// journal version is an error naming it, and is left as it is.
func (j *Journal) replayFile(path string, goodOffset *int64) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("checkpoint: recover %s: %w", path, err)
	}
	defer f.Close()
	off, err := replayFrames(f, j.applyRecord)
	if err != nil {
		return fmt.Errorf("checkpoint: recover %s: %w", path, err)
	}
	if goodOffset != nil {
		*goodOffset = off
	}
	return nil
}

// replayFrames reads header + frames from r, calling apply for each
// CRC-intact frame until apply rejects one or the stream tears. It
// returns the offset just past the last accepted frame (0 when even the
// header is unusable), and a *codec.VersionError when the header names
// another journal version.
func replayFrames(r io.Reader, apply func(payload []byte) error) (goodOffset int64, err error) {
	d := codec.NewDecoder(bufio.NewReaderSize(r, 64*1024))
	d.Header(journalMagic, journalVersion,
		"written by another build; resume with that build, or crawl again without -resume")
	var ve *codec.VersionError
	if errors.As(d.Err(), &ve) {
		return 0, ve
	}
	if d.Err() != nil {
		return 0, nil
	}
	goodOffset = int64(headerLen)
	for {
		var fh [8]byte
		d.Fixed(fh[:])
		plen := binary.LittleEndian.Uint32(fh[0:4])
		if d.Err() != nil || plen == 0 || plen > maxFramePayload {
			return goodOffset, nil // clean EOF, torn frame header or a lying length
		}
		payload := d.Next(int(plen))
		if d.Err() != nil || crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(fh[4:8]) ||
			apply(payload) != nil {
			return goodOffset, nil
		}
		goodOffset += 8 + int64(plen)
	}
}

// applyRecord decodes one frame payload and folds it into the in-memory
// maps. An undecodable payload — a decoder panic on hostile input
// included — is an error: the tear point.
func (j *Journal) applyRecord(payload []byte) (err error) {
	defer codec.Contain(&err, "checkpoint: frame")
	d := codec.NewDecoder(bytes.NewReader(payload))
	typ, url := d.Uvarint(), d.String()
	switch typ {
	case recPageDone:
		graph, metrics := d.Bytes(), d.Bytes()
		if d.Err() != nil {
			return d.Err()
		}
		g, err := model.DecodeGraph(graph)
		if err != nil {
			return err
		}
		if _, dup := j.pages[url]; !dup {
			j.pageOrder = append(j.pageOrder, url)
		}
		j.pages[url] = PageRecord{URL: url, Graph: g, Metrics: metrics}
		j.recovered.Pages++
	case recHotNode:
		key, body := d.String(), d.String()
		if d.Err() != nil {
			return d.Err()
		}
		if j.hot[url] == nil {
			j.hot[url] = make(map[string]string)
		}
		j.hot[url][key] = body
		j.recovered.HotEntries++
	default:
		d.Fail(fmt.Errorf("record type %d", typ))
	}
	return d.Err()
}

// begin starts a frame of type typ about url in j.payload and returns
// the encoder that writes the rest of it. Call with j.mu held.
func (j *Journal) begin(typ uint64, url string) codec.Encoder {
	j.payload.Reset()
	e := codec.NewEncoder(&j.payload)
	e.Uvarint(typ)
	e.String(url)
	return e
}

// pageFrame builds rec's page frame payload in j.payload.
func (j *Journal) pageFrame(rec PageRecord) ([]byte, error) {
	graph, err := model.EncodeGraph(rec.Graph)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode graph %s: %w", rec.URL, err)
	}
	e := j.begin(recPageDone, rec.URL)
	e.Bytes(graph)
	e.Bytes(rec.Metrics)
	return j.payload.Bytes(), nil
}

// CompletedPages returns the number of pages the journal holds.
func (j *Journal) CompletedPages() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pages)
}

// Pages returns every completed page's record, in first-completion
// order.
func (j *Journal) Pages() []PageRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]PageRecord, 0, len(j.pageOrder))
	for _, u := range j.pageOrder {
		out = append(out, j.pages[u])
	}
	return out
}

// Completed returns the journaled record of url, if the page finished in
// this or a previous (recovered) run.
func (j *Journal) Completed(url string) (PageRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.pages[url]
	return rec, ok
}

// HotEntries returns the journaled hot-node cache fills for url (nil
// when none) — a re-crawl of an interrupted page seeds its cache from
// these, so repeat hot calls skip the network exactly as they did before
// the crash.
func (j *Journal) HotEntries(url string) map[string]string {
	j.mu.Lock()
	defer j.mu.Unlock()
	entries := j.hot[url]
	if len(entries) == 0 {
		return nil
	}
	out := make(map[string]string, len(entries))
	for k, v := range entries {
		out[k] = v
	}
	return out
}

// PageDone durably records a completed page: the frame is written and
// flushed to the OS before PageDone returns, so a process kill after it
// can never lose the page. Every CompactEvery pages the journal compacts
// itself into a fresh snapshot.
func (j *Journal) PageDone(rec PageRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	_, sp := obs.StartSpan(j.ctx, obs.SpanCheckpointWrite, obs.A("url", rec.URL))
	payload, err := j.pageFrame(rec)
	if err == nil {
		err = j.writeFrame(payload)
	}
	if err != nil {
		sp.End(err)
		return err
	}
	// The page frame is the durability point: flush it through to the OS
	// so only a machine (not process) crash can lose it.
	if err := j.flushLocked(); err != nil {
		sp.End(err)
		return err
	}
	if _, dup := j.pages[rec.URL]; !dup {
		j.pageOrder = append(j.pageOrder, rec.URL)
	}
	j.pages[rec.URL] = rec
	j.sinceCompact++
	var cerr error
	if j.sinceCompact >= j.compactEvery {
		cerr = j.compactLocked()
	}
	sp.End(cerr)
	return cerr
}

// HotNode journals one hot-node cache fill mid-page. These records are
// buffered (flushed with the next page frame), so they cost no extra
// syscalls on the hot path.
func (j *Journal) HotNode(url, key, body string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	e := j.begin(recHotNode, url)
	e.String(key)
	e.String(body)
	if err := j.writeFrame(j.payload.Bytes()); err != nil {
		return err
	}
	if j.hot[url] == nil {
		j.hot[url] = make(map[string]string)
	}
	j.hot[url][key] = body
	return nil
}

// writeFrame appends one frame. Any failure is sticky.
func (j *Journal) writeFrame(payload []byte) error {
	if len(payload) > maxFramePayload {
		j.err = fmt.Errorf("checkpoint: frame payload %d exceeds limit %d", len(payload), maxFramePayload)
		return j.err
	}
	if err := putFrame(j.w, payload); err != nil {
		j.err = fmt.Errorf("checkpoint: write %s: %w", j.dir, err)
		return j.err
	}
	n := int64(8 + len(payload))
	j.walBytes += n
	j.tel.Counter("crawl.partition.journal_bytes").Add(n)
	return nil
}

// putFrame writes one frame — length, CRC, payload — to w.
func putFrame(w *bufio.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))
	w.Write(hdr[:]) //nolint:errcheck // sticky, returned by the next Write
	_, err := w.Write(payload)
	return err
}

// Flush pushes buffered records through to the OS.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.flushLocked()
}

func (j *Journal) flushLocked() error {
	if j.err != nil {
		return j.err
	}
	if err := j.w.Flush(); err != nil {
		j.err = fmt.Errorf("checkpoint: flush %s: %w", j.dir, err)
	}
	return j.err
}

// compactLocked folds every completed page into a fresh snapshot file
// (temp + atomic rename, like the index manifest publish) and resets the
// WAL to just its header, bounding journal growth and resume replay
// time. Mid-page records of pages that later completed become redundant
// and are dropped with the old WAL.
func (j *Journal) compactLocked() error {
	_, sp := obs.StartSpan(j.ctx, obs.SpanCheckpointCompact,
		obs.A("dir", j.dir), obs.A("pages", strconv.Itoa(len(j.pages))))
	err := j.compactFiles()
	if err != nil {
		j.err = err
	} else {
		j.sinceCompact = 0
		j.tel.Counter("checkpoint.compactions").Inc()
	}
	sp.End(err)
	return err
}

func (j *Journal) compactFiles() error {
	err := j.writeSnapshot()
	// The snapshot now owns every page; reset the WAL to its header.
	// Ordering matters: the rename lands before the truncate, so a crash
	// between the two replays pages from both files (idempotent), never
	// from neither.
	if err == nil {
		err = j.w.Flush()
	}
	if err == nil {
		err = j.f.Truncate(int64(headerLen))
	}
	if err == nil {
		_, err = j.f.Seek(int64(headerLen), io.SeekStart)
	}
	if err != nil {
		return fmt.Errorf("checkpoint: compact %s: %w", j.dir, err)
	}
	j.walBytes = int64(headerLen)
	return nil
}

// writeSnapshot writes every completed page and unfinished page's
// hot-node fill into a temp file, syncs it, and renames it over the
// snapshot.
func (j *Journal) writeSnapshot() (err error) {
	tmp, err := os.CreateTemp(j.dir, "snapshot-*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	w := bufio.NewWriterSize(tmp, 64*1024)
	codec.NewEncoder(w).Header(journalMagic, journalVersion)
	for _, url := range j.pageOrder {
		payload, err := j.pageFrame(j.pages[url])
		if err != nil {
			return err
		}
		putFrame(w, payload) //nolint:errcheck // sticky, checked via Flush
	}
	// The hot-node fills of a page that has not completed survive
	// compaction: its re-crawl seeds its cache from them.
	for _, url := range slices.Sorted(maps.Keys(j.hot)) {
		if _, done := j.pages[url]; done {
			continue
		}
		for _, key := range slices.Sorted(maps.Keys(j.hot[url])) {
			e := j.begin(recHotNode, url)
			e.String(key)
			e.String(j.hot[url][key])
			putFrame(w, j.payload.Bytes()) //nolint:errcheck
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), filepath.Join(j.dir, snapFileName))
}

// Close flushes buffered records, syncs the WAL, and closes it. The
// journal is unusable afterwards; reopen with Open to resume.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.err
	}
	flushErr := j.flushLocked()
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.f = nil
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return fmt.Errorf("checkpoint: sync %s: %w", j.dir, syncErr)
	}
	if closeErr != nil {
		return fmt.Errorf("checkpoint: close %s: %w", j.dir, closeErr)
	}
	return nil
}
