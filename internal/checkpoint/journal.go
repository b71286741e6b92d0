// Package checkpoint implements the durable crawl journal that makes a
// crawl crash-tolerant: one append-only write-ahead log of the crawl's
// completed pages with their application models, shared by every
// process line.
//
// The format follows the WAL discipline of production crawlers: every
// record is one length-prefixed, CRC-checksummed frame, so a crash —
// including `kill -9` mid-write — leaves at worst a torn tail that
// recovery truncates away. Everything before the tear replays
// losslessly, which is what lets a resumed crawl skip already-completed
// pages and converge to the same state set as an uninterrupted run.
//
// On disk, inside the checkpoint directory:
//
//	journal.wal — header "AJWL"+version, then page frames appended in order
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
	"strings"
	"sync"

	"ajaxcrawl/internal/codec"
	"ajaxcrawl/internal/model"
	"ajaxcrawl/internal/obs"
)

const (
	// walFileName is the append-only journal inside the checkpoint
	// directory.
	walFileName = "journal.wal"

	journalMagic = "AJWL"
	// journalVersion 1 carried gob-encoded graphs and metrics in its
	// page frames; version 2 also journaled every admitted state's hash
	// and near-dup signature, which no resume read; version 3's page
	// metrics carried a breaker-opens count; version 4 journals were one
	// per process line, with hot-node fill frames and a compacted
	// snapshot beside them; version 5's page metrics carried an
	// events-skipped count. A journal of another version is refused, not
	// replayed.
	journalVersion = 6

	// recPageDone is the one record type. 2 (an admitted state's hash)
	// and 5 (its near-dup signature) are retired with version 2, 4 (a
	// frontier admission, only ever written to the frontier journal)
	// with the priority frontier, and 3 (a hot-node cache fill) with
	// version 5; none is reused.
	recPageDone = 1

	// maxFramePayload bounds the length prefix of a frame. A lying
	// header beyond it is treated as a torn tail, not an allocation.
	maxFramePayload = 1 << 28
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// headerLen is the byte length of the file header (magic + version),
// frameHeaderLen that of a frame's (length + CRC).
const (
	headerLen      = len(journalMagic) + 1
	frameHeaderLen = 8
)

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
	// TruncatedBytes counts journal bytes dropped by torn-tail recovery
	// (0 for a cleanly closed journal).
	TruncatedBytes int64
}

// Journal is a crawl's durable log. All methods are safe for concurrent
// use: every process line appends to the one journal.
type Journal struct {
	mu   sync.Mutex
	path string
	tel  *obs.Telemetry
	ctx  context.Context

	f *os.File
	// frame is the frame under construction, reused frame to frame.
	frame bytes.Buffer

	// err is sticky: after any write failure the journal refuses further
	// work, so a half-written frame can never be followed by records the
	// caller believes durable.
	err error

	pages     map[string]PageRecord
	recovered RecoveryInfo
}

// Open opens the journal in dir, creating dir if needed. With resume
// set it recovers the journal there: replay stops at the first torn or
// corrupt frame and truncates the file at that point, so appends
// continue from the last durable record. Without resume an existing
// journal is removed first — a fresh crawl rather than a resume. The
// context supplies telemetry: recovery emits a checkpoint.recover span,
// writes count into crawl.partition.journal_bytes.
func Open(ctx context.Context, dir string, resume bool) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", dir, err)
	}
	j := &Journal{
		path:  filepath.Join(dir, walFileName),
		tel:   obs.From(ctx),
		ctx:   ctx,
		pages: make(map[string]PageRecord),
	}
	if !resume {
		if err := os.Remove(j.path); err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("checkpoint: reset %s: %w", j.path, err)
		}
	}

	_, sp := obs.StartSpan(ctx, obs.SpanCheckpointRecover, obs.A("dir", dir))
	f, err := j.recover()
	sp.SetAttr("pages", strconv.Itoa(j.recovered.Pages))
	sp.SetAttr("truncated_bytes", strconv.FormatInt(j.recovered.TruncatedBytes, 10))
	sp.End(err)
	if err != nil {
		return nil, err
	}
	j.f = f
	return j, nil
}

// recover replays the WAL and returns it open for appends at the end of
// its last intact frame.
func (j *Journal) recover() (*os.File, error) {
	goodOffset, err := j.replay()
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(j.path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: open %s: %w", j.path, err)
	}
	fail := func(what string, err error) (*os.File, error) {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %s %s: %w", what, j.path, err)
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
	return f, nil
}

// replay replays the WAL into the page map and returns the offset just
// past its last intact, decodable frame; replay stops — without error —
// at the first torn or corrupt one. A missing file is a fresh journal.
// A file of another journal version is an error naming it, and is left
// as it is.
func (j *Journal) replay() (int64, error) {
	f, err := os.Open(j.path)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("checkpoint: recover %s: %w", j.path, err)
	}
	defer f.Close()
	off, err := replayFrames(f, j.applyRecord)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: recover %s: %w", j.path, err)
	}
	return off, nil
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
		var fh [frameHeaderLen]byte
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
		goodOffset += frameHeaderLen + int64(plen)
	}
}

// applyRecord decodes one page frame and folds it into the page map.
// An undecodable payload — a decoder panic on hostile input included —
// is an error: the tear point.
func (j *Journal) applyRecord(payload []byte) (err error) {
	defer codec.Contain(&err, "checkpoint: frame")
	d := codec.NewDecoder(bytes.NewReader(payload))
	if typ := d.Uvarint(); typ != recPageDone {
		d.Fail(fmt.Errorf("record type %d", typ))
	}
	url, graph, metrics := d.String(), d.Bytes(), d.Bytes()
	if d.Err() != nil {
		return d.Err()
	}
	g, err := model.DecodeGraph(graph)
	if err != nil {
		return err
	}
	j.pages[url] = PageRecord{URL: url, Graph: g, Metrics: metrics}
	j.recovered.Pages++
	return nil
}

// CompletedPages returns the number of pages the journal holds.
func (j *Journal) CompletedPages() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.pages)
}

// Pages returns every completed page's record, in URL order.
func (j *Journal) Pages() []PageRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return slices.SortedFunc(maps.Values(j.pages), func(a, b PageRecord) int {
		return strings.Compare(a.URL, b.URL)
	})
}

// Completed returns the journaled record of url, if the page finished in
// this or a previous (recovered) run.
func (j *Journal) Completed(url string) (PageRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.pages[url]
	return rec, ok
}

// PageDone durably records a completed page: the frame is written and
// flushed to the OS before PageDone returns, so a process kill after it
// can never lose the page. The graph is encoded before the journal's
// lock is taken, so lines serialize only on the append.
func (j *Journal) PageDone(rec PageRecord) error {
	_, sp := obs.StartSpan(j.ctx, obs.SpanCheckpointWrite, obs.A("url", rec.URL))
	err := j.pageDone(rec)
	sp.End(err)
	return err
}

func (j *Journal) pageDone(rec PageRecord) error {
	graph, err := model.EncodeGraph(rec.Graph)
	if err != nil {
		return fmt.Errorf("checkpoint: encode graph %s: %w", rec.URL, err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	e := j.begin()
	e.Uvarint(recPageDone)
	e.String(rec.URL)
	e.Bytes(graph)
	e.Bytes(rec.Metrics)
	if err := j.writeFrame(); err != nil {
		return err
	}
	j.pages[rec.URL] = rec
	return nil
}

// begin starts a frame in j.frame — room for its header, then the
// payload the returned encoder writes. Call with j.mu held.
func (j *Journal) begin() codec.Encoder {
	j.frame.Reset()
	j.frame.Write(make([]byte, frameHeaderLen))
	return codec.NewEncoder(&j.frame)
}

// writeFrame fills in the header of the frame in j.frame and appends
// the frame to the file in one write, which is the page's durability
// point: once it returns, only a machine (not process) crash can lose
// the frame. Any failure is sticky. Call with j.mu held.
func (j *Journal) writeFrame() error {
	frame := j.frame.Bytes()
	payload := frame[frameHeaderLen:]
	if len(payload) > maxFramePayload {
		j.err = fmt.Errorf("checkpoint: frame payload %d exceeds limit %d", len(payload), maxFramePayload)
		return j.err
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, crcTable))
	if _, err := j.f.Write(frame); err != nil {
		j.err = fmt.Errorf("checkpoint: write %s: %w", j.path, err)
		return j.err
	}
	j.tel.Counter("crawl.partition.journal_bytes").Add(int64(len(frame)))
	return nil
}

// Close syncs the WAL and closes it. The journal is unusable afterwards;
// reopen with Open to resume.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.err
	}
	syncErr := j.f.Sync()
	closeErr := j.f.Close()
	j.f = nil
	switch {
	case j.err != nil:
		return j.err
	case syncErr != nil:
		return fmt.Errorf("checkpoint: sync %s: %w", j.path, syncErr)
	case closeErr != nil:
		return fmt.Errorf("checkpoint: close %s: %w", j.path, closeErr)
	}
	return nil
}
