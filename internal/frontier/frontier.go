// Package frontier implements the shared crawl frontier of the parallel
// crawler: a tiered priority queue over precrawled URLs (ordered by
// PageRank with an expected-AJAX-state-yield boost), exact dedup at
// admission, and a work-stealing scheduler that feeds N long-lived
// process lines from the one shared queue so a slow page never strands
// capacity the way a slow static partition did.
package frontier

import (
	"container/heap"
	"sort"
	"sync"

	"ajaxcrawl/internal/obs"
)

// Item is one unit of crawl work: a URL with its position in the crawl's
// URL list (results are assembled in that order) and its scheduling
// priority.
type Item struct {
	URL string
	// Seq is the URL's position in the crawl's URL list. It gives every
	// item a total order that priority ties break on, which is what
	// makes a seeded multi-line crawl reproducible.
	Seq int
	// Priority orders the frontier, higher first — normalized PageRank
	// plus the expected-AJAX-state-yield boost.
	Priority float64
	// Attempt counts supervisor requeues of this item (0 = first try).
	Attempt int
}

// Config tunes a Frontier.
type Config struct {
	// Tiers is the number of priority bands; the tier boundaries are
	// the priority quantiles of the seed batch. <= 0 selects 4.
	Tiers int
	// Tel receives frontier.* metrics; nil disables metering.
	Tel *obs.Telemetry
}

// Frontier is the shared prioritized URL queue. Priorities are bucketed
// into tiers (bands between seed-batch quantiles); within a tier a heap
// orders items by (priority desc, seq), so equal-priority work drains
// in URL order — the property the determinism suite pins. Tiering keeps the hot path cheap: Pop scans a handful of
// buckets and pays one O(log n) heap operation on the first non-empty
// one.
//
// Dedup is exact: a URL already admitted is not admitted again.
//
// All methods are safe for concurrent use.
type Frontier struct {
	mu       sync.Mutex
	tiers    []tierHeap
	bounds   []float64 // descending tier lower bounds, len = len(tiers)-1
	admitted map[string]bool
	size     int
	tel      *obs.Telemetry
}

// New returns an empty frontier.
func New(cfg Config) *Frontier {
	tiers := cfg.Tiers
	if tiers <= 0 {
		tiers = 4
	}
	return &Frontier{
		tiers:    make([]tierHeap, tiers),
		admitted: make(map[string]bool),
		tel:      cfg.Tel,
	}
}

// AdmitSeed bulk-admits the precrawl batch and derives the tier
// boundaries from its priority quantiles; a URL already admitted is
// skipped. Returns the number of items admitted.
func (f *Frontier) AdmitSeed(items []Item) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	// Quantile boundaries over the batch's distinct priorities. With a
	// flat priority map (no PageRank) every item lands in tier 0 and
	// the frontier degrades to URL-order FIFO.
	pris := make([]float64, 0, len(items))
	for _, it := range items {
		if !f.admitted[it.URL] {
			pris = append(pris, it.Priority)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(pris)))
	f.bounds = f.bounds[:0]
	for t := 1; t < len(f.tiers); t++ {
		i := t * len(pris) / len(f.tiers)
		if i >= len(pris) {
			i = len(pris) - 1
		}
		i = max(i, 0)
		if len(pris) == 0 {
			f.bounds = append(f.bounds, 0)
		} else {
			f.bounds = append(f.bounds, pris[i])
		}
	}
	n := 0
	for _, it := range items {
		if f.admitted[it.URL] {
			f.meter("frontier.dedup_hits", 1)
			continue
		}
		f.admitted[it.URL] = true
		f.push(it)
		n++
	}
	f.meter("frontier.admitted", int64(n))
	return n
}

// Push requeues an item without dedup — the supervisor's retry path.
func (f *Frontier) Push(it Item) {
	f.mu.Lock()
	f.push(it)
	f.mu.Unlock()
}

// Pop removes and returns the highest-priority item.
func (f *Frontier) Pop() (Item, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for t := range f.tiers {
		if f.tiers[t].Len() > 0 {
			it := heap.Pop(&f.tiers[t]).(Item)
			f.size--
			f.gauge("frontier.depth", -1)
			return it, true
		}
	}
	return Item{}, false
}

// PopBatch pops up to n items in priority order.
func (f *Frontier) PopBatch(n int) []Item {
	var out []Item
	for len(out) < n {
		it, ok := f.Pop()
		if !ok {
			break
		}
		out = append(out, it)
	}
	return out
}

// Len returns the number of queued items.
func (f *Frontier) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size
}

// push enqueues under f.mu.
func (f *Frontier) push(it Item) {
	heap.Push(&f.tiers[f.tierOf(it.Priority)], it)
	f.size++
	f.gauge("frontier.depth", 1)
	if f.tel != nil {
		f.tel.Histogram("frontier.priority", PriorityBounds...).Observe(it.Priority)
	}
}

// tierOf maps a priority to its band: tier t holds priorities >=
// bounds[t] (bounds descend); anything below the last bound lands in
// the bottom tier.
func (f *Frontier) tierOf(pri float64) int {
	for t, b := range f.bounds {
		if pri >= b {
			return t
		}
	}
	return len(f.tiers) - 1
}

// PriorityBounds are the frontier.priority histogram buckets. Priorities
// are normalized PageRank (max 1) plus a yield boost in [0,1), so the
// observable range is [0,2).
var PriorityBounds = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 0.75, 1, 1.5}

func (f *Frontier) meter(name string, d int64) {
	if f.tel != nil {
		f.tel.Counter(name).Add(d)
	}
}

func (f *Frontier) gauge(name string, d int64) {
	if f.tel != nil {
		f.tel.Gauge(name).Add(d)
	}
}

// tierHeap is a max-heap on priority with a seq tie-break.
type tierHeap []Item

func (h tierHeap) Len() int { return len(h) }
func (h tierHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].Seq < h[j].Seq
}
func (h tierHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *tierHeap) Push(x any) { *h = append(*h, x.(Item)) }

func (h *tierHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = Item{}
	*h = old[:n-1]
	return it
}
