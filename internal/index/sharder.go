package index

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ajaxcrawl/internal/model"
)

// ShardPages is the shard split: every ShardPages consecutive positions
// of the crawl's URL list form one index shard. The split is by
// position, not by count of crawled pages, so the layout is a function
// of the site alone whatever failed.
const ShardPages = 20

// Sharder cuts a crawl's pages, fed in URL order, into index shards and
// encodes each one as soon as its chunk completes, into a file in its
// directory or into memory when it has none, keeping only the encoding
// and its manifest entry: a crawl holds one shard's Index at a time. It
// is the one owner of the shard split: the pipeline feeds it page by
// page while later pages still crawl.
type Sharder struct {
	pos      map[string]int
	pageRank map[string]float64
	dir, gen string
	chunk    int
	pending  []*model.Graph
	shards   []ShardEntry
	data     [][]byte // the encodings, when dir is ""
	err      error    // the first failed encoding
	b        builder
}

// NewSharder returns a Sharder for a crawl of urls whose shard files go
// into dir (created if missing); "" keeps the encodings in memory.
// pageRank may be nil (all zeros).
func NewSharder(urls []string, pageRank map[string]float64, dir string) *Sharder {
	pos := make(map[string]int, len(urls))
	for i, u := range urls {
		if _, dup := pos[u]; !dup {
			pos[u] = i
		}
	}
	return &Sharder{pos: pos, pageRank: pageRank, dir: dir, gen: newGeneration()}
}

// Add takes the next page in URL order; g is nil for a page that failed.
// The chunk's shard is built (an index.build span under ctx) and encoded
// as soon as its last position arrives. After a failed encoding Add does
// nothing, and Finish reports the failure.
func (s *Sharder) Add(ctx context.Context, url string, g *model.Graph) {
	p := s.pos[url]
	if c := p / ShardPages; c != s.chunk {
		s.flush(ctx)
		s.chunk = c
	}
	if g != nil && s.err == nil {
		s.pending = append(s.pending, g)
	}
	if p%ShardPages == ShardPages-1 {
		s.flush(ctx)
	}
}

// Finish encodes the last, partly filled chunk, drops the build scratch
// and returns the first failed encoding's error: after it the Sharder
// only publishes. A chunk none of whose pages was crawled has no shard.
func (s *Sharder) Finish(ctx context.Context) error {
	s.flush(ctx)
	s.pos, s.pending, s.b = nil, nil, builder{}
	return s.err
}

func (s *Sharder) flush(ctx context.Context) {
	if len(s.pending) > 0 {
		ix := s.b.build(ctx, s.pending, s.pageRank, 0)
		s.pending = s.pending[:0]
		e, data, err := encodeShard(ix, s.dir, shardFile(s.gen, len(s.shards)))
		if s.err = err; err == nil {
			s.shards, s.data = append(s.shards, e), append(s.data, data)
		}
	}
}

// Entries returns the manifest entries of the encoded shards, in URL
// order.
func (s *Sharder) Entries() []ShardEntry { return s.shards }

// Publish puts every encoded shard into dir unchanged — a hard link to
// its file, a copy where the link fails (across devices), its bytes when
// they are in memory — and then the models and the manifest, as
// SaveSnapshot does. It may be called more than once, and dir may be the
// Sharder's own directory.
func (s *Sharder) Publish(dir string, graphs []*model.Graph) (*Manifest, error) {
	if len(s.shards) == 0 {
		return nil, fmt.Errorf("index: snapshot: no shards to save")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("index: snapshot: %w", err)
	}
	for i, e := range s.shards {
		dst, data := filepath.Join(dir, e.File), s.data[i]
		if _, err := os.Stat(dst); err == nil {
			continue // a file name is written once: this is e's file
		}
		if src := filepath.Join(s.dir, e.File); data == nil {
			if os.Link(src, dst) == nil {
				continue
			}
			var err error
			if data, err = os.ReadFile(src); err != nil {
				return nil, fmt.Errorf("index: snapshot: %w", err)
			}
		}
		if err := create(dst, func(w io.Writer) error { _, err := w.Write(data); return err }); err != nil {
			return nil, fmt.Errorf("index: snapshot: %w", err)
		}
	}
	return publish(dir, s.shards, graphs)
}

// encodeShard is the one encode path of a snapshot's shard: ix into
// dir/name, or into the returned bytes when dir is "". It returns the
// shard's manifest entry.
func encodeShard(ix *Index, dir, name string) (ShardEntry, []byte, error) {
	e := ShardEntry{File: name, Docs: ix.NumDocs(), States: ix.TotalStates, Postings: ix.NumPostings(), Terms: ix.NumTerms()}
	if dir != "" {
		if err := create(filepath.Join(dir, name), ix.Encode); err != nil {
			return e, nil, fmt.Errorf("index: save: %w", err)
		}
		return e, nil, nil
	}
	var buf bytes.Buffer
	err := ix.Encode(&buf)
	return e, bytes.Clone(buf.Bytes()), err
}

// create writes a new file at path, its directory created if missing,
// through write, and removes it again if anything fails.
func create(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}
