package frontier

import (
	"math/rand"
	"sync"

	"ajaxcrawl/internal/obs"
)

// SchedConfig tunes a Scheduler.
type SchedConfig struct {
	// Lines is the number of process lines pulling work. <= 0 selects 1.
	Lines int
	// Batch is how many items a line pulls from the shared frontier per
	// refill; the surplus lands in the line's local deque where
	// siblings can steal it. <= 0 selects 8.
	Batch int
	// Seed seeds the steal-victim tie-break PRNG. The scheduler is
	// deterministic for any seed (crawl results are order-independent
	// by construction); the seed makes the *schedule* itself
	// reproducible for debugging and the determinism suite. 0 selects
	// seed 1.
	Seed int64
	// Tel receives frontier.steals; nil disables metering.
	Tel *obs.Telemetry
}

// Scheduler feeds N process lines from one shared Frontier. Each line
// owns a small FIFO deque refilled in batches from the frontier; a line
// that runs dry first drains the frontier, then steals the back half of
// the richest sibling's deque, and is done once every queue is empty —
// nothing is admitted after the seed, so the items still in flight are
// the siblings' to finish. This is what replaces "one goroutine per
// static partition": capacity rebalances to wherever work remains
// instead of idling behind a slow partition.
//
// All methods are safe for concurrent use.
type Scheduler struct {
	f        *Frontier
	mu       sync.Mutex
	deques   []deque
	canceled bool
	batch    int
	rng      *rand.Rand
	tel      *obs.Telemetry
}

// NewScheduler wraps an already-loaded frontier.
func NewScheduler(f *Frontier, cfg SchedConfig) *Scheduler {
	lines := cfg.Lines
	if lines <= 0 {
		lines = 1
	}
	batch := cfg.Batch
	if batch <= 0 {
		batch = 8
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &Scheduler{
		f:      f,
		deques: make([]deque, lines),
		batch:  batch,
		rng:    rand.New(rand.NewSource(seed)),
		tel:    cfg.Tel,
	}
}

// Next returns line's next item, or false once no queue holds one or
// the scheduler is canceled.
func (s *Scheduler) Next(line int) (Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.canceled {
		return Item{}, false
	}
	if it, ok := s.deques[line].popFront(); ok {
		return it, true
	}
	if batch := s.f.PopBatch(s.batch); len(batch) > 0 {
		s.deques[line].pushBack(batch[1:])
		return batch[0], true
	}
	return s.steal(line)
}

// steal (under s.mu) takes the back half of the richest sibling's
// deque, ties broken by the seeded PRNG so no line is structurally
// favored. Returns the first stolen item; the rest join line's deque.
func (s *Scheduler) steal(line int) (Item, bool) {
	richest, max, ties := -1, 0, 0
	for i := range s.deques {
		if i == line {
			continue
		}
		switch n := s.deques[i].len(); {
		case n > max:
			richest, max, ties = i, n, 1
		case n == max && n > 0:
			ties++
			if s.rng.Intn(ties) == 0 {
				richest = i
			}
		}
	}
	if richest < 0 {
		return Item{}, false
	}
	got := s.deques[richest].stealBack((max + 1) / 2)
	if s.tel != nil {
		s.tel.Counter("frontier.steals").Inc()
	}
	s.deques[line].pushBack(got[1:])
	return got[0], true
}

// Cancel aborts the crawl: every later Next returns false. Items left
// queued are abandoned (the caller's context is ending).
func (s *Scheduler) Cancel() {
	s.mu.Lock()
	s.canceled = true
	s.mu.Unlock()
}

// deque is a line's local FIFO: popFront serves the owner, stealBack
// serves siblings. The head cursor avoids the reslice-pins-the-array
// leak; the buffer compacts once the head passes half the backing
// array.
type deque struct {
	buf  []Item
	head int
}

func (d *deque) len() int { return len(d.buf) - d.head }

func (d *deque) popFront() (Item, bool) {
	if d.head >= len(d.buf) {
		return Item{}, false
	}
	it := d.buf[d.head]
	d.buf[d.head] = Item{}
	d.head++
	if d.head >= len(d.buf) {
		d.buf, d.head = d.buf[:0], 0
	} else if d.head > len(d.buf)/2 && d.head > 16 {
		n := copy(d.buf, d.buf[d.head:])
		d.buf, d.head = d.buf[:n], 0
	}
	return it, true
}

func (d *deque) pushBack(items []Item) {
	d.buf = append(d.buf, items...)
}

// stealBack removes up to n items from the back, preserving their
// relative order.
func (d *deque) stealBack(n int) []Item {
	n = min(n, d.len())
	if n <= 0 {
		return nil
	}
	cut := len(d.buf) - n
	out := make([]Item, n)
	copy(out, d.buf[cut:])
	for i := cut; i < len(d.buf); i++ {
		d.buf[i] = Item{}
	}
	d.buf = d.buf[:cut]
	return out
}
