package index

import (
	"context"

	"ajaxcrawl/internal/model"
)

// ShardPages is the shard split: every ShardPages consecutive positions
// of the crawl's URL list form one index shard. The split is by
// position, not by count of crawled pages, so the layout is a function
// of the site alone whatever failed.
const ShardPages = 20

// Sharder cuts a crawl's pages, fed in URL order, into index shards. It
// is the one owner of the shard split: the in-process pipeline feeds it
// page by page while later pages still crawl, the CLI feeds it a
// finished crawl's graphs, and both publish the same shards.
type Sharder struct {
	pos      map[string]int
	pageRank map[string]float64
	chunk    int
	pending  []*model.Graph
	shards   []*Index
	b        builder
}

// NewSharder returns a Sharder for a crawl of urls. pageRank may be nil
// (all zeros).
func NewSharder(urls []string, pageRank map[string]float64) *Sharder {
	pos := make(map[string]int, len(urls))
	for i, u := range urls {
		if _, dup := pos[u]; !dup {
			pos[u] = i
		}
	}
	return &Sharder{pos: pos, pageRank: pageRank}
}

// Add takes the next page in URL order; g is nil for a page that failed.
// The chunk's shard is built (an index.build span under ctx) as soon as
// its last position arrives.
func (s *Sharder) Add(ctx context.Context, url string, g *model.Graph) {
	p := s.pos[url]
	if c := p / ShardPages; c != s.chunk {
		s.flush(ctx)
		s.chunk = c
	}
	if g != nil {
		s.pending = append(s.pending, g)
	}
	if p%ShardPages == ShardPages-1 {
		s.flush(ctx)
	}
}

// Shards builds the last, partly filled chunk and returns every shard in
// URL order. A chunk none of whose pages was crawled has no shard.
func (s *Sharder) Shards(ctx context.Context) []*Index {
	s.flush(ctx)
	return s.shards
}

func (s *Sharder) flush(ctx context.Context) {
	if len(s.pending) > 0 {
		s.shards = append(s.shards, s.b.build(ctx, s.pending, s.pageRank, 0))
		s.pending = s.pending[:0]
	}
}
