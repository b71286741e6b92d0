package frontier

import (
	"fmt"
	"sync"
	"testing"
)

func TestFrontierPriorityOrder(t *testing.T) {
	f := New(Config{})
	f.AdmitSeed([]Item{
		{URL: "low", Seq: 0, Priority: 0.1},
		{URL: "high", Seq: 1, Priority: 0.9},
		{URL: "mid", Seq: 2, Priority: 0.5},
	})
	want := []string{"high", "mid", "low"}
	for _, w := range want {
		it, ok := f.Pop()
		if !ok || it.URL != w {
			t.Fatalf("pop = %q,%v want %q", it.URL, ok, w)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop on empty frontier succeeded")
	}
}

func TestFrontierEqualPriorityIsURLOrder(t *testing.T) {
	f := New(Config{})
	var seed []Item
	for p := 2; p >= 0; p-- {
		for s := 2; s >= 0; s-- {
			seed = append(seed, Item{URL: fmt.Sprintf("p%ds%d", p, s), Seq: 3*p + s, Priority: 0.25})
		}
	}
	f.AdmitSeed(seed)
	var got []string
	for {
		it, ok := f.Pop()
		if !ok {
			break
		}
		got = append(got, it.URL)
	}
	want := []string{"p0s0", "p0s1", "p0s2", "p1s0", "p1s1", "p1s2", "p2s0", "p2s1", "p2s2"}
	if len(got) != len(want) {
		t.Fatalf("popped %d items, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order[%d] = %q, want %q (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestFrontierDedup(t *testing.T) {
	f := New(Config{})
	n := f.AdmitSeed([]Item{
		{URL: "a", Priority: 1},
		{URL: "a", Priority: 1}, // duplicate within seed batch
		{URL: "b", Priority: 1},
	})
	if n != 2 {
		t.Fatalf("seed admitted %d, want 2", n)
	}
	if n := f.AdmitSeed([]Item{{URL: "a"}, {URL: "c"}}); n != 1 {
		t.Fatalf("second batch admitted %d, want 1 (a is already admitted)", n)
	}
	if f.Len() != 3 {
		t.Fatalf("len = %d, want 3", f.Len())
	}
}

func TestSchedulerDrainsEverything(t *testing.T) {
	const items, lines = 200, 4
	f := New(Config{})
	var seed []Item
	for i := 0; i < items; i++ {
		seed = append(seed, Item{URL: fmt.Sprintf("u%d", i), Seq: i, Priority: float64(i % 7)})
	}
	f.AdmitSeed(seed)
	s := NewScheduler(f, SchedConfig{Lines: lines, Batch: 4, Seed: 7})
	var mu sync.Mutex
	got := make(map[string]int)
	var wg sync.WaitGroup
	for l := 0; l < lines; l++ {
		wg.Add(1)
		go func(line int) {
			defer wg.Done()
			for {
				it, ok := s.Next(line)
				if !ok {
					return
				}
				mu.Lock()
				got[it.URL]++
				mu.Unlock()
			}
		}(l)
	}
	wg.Wait()
	if len(got) != items {
		t.Fatalf("processed %d distinct items, want %d", len(got), items)
	}
	for u, n := range got {
		if n != 1 {
			t.Fatalf("item %s processed %d times", u, n)
		}
	}
}

func TestSchedulerCancelUnblocks(t *testing.T) {
	f := New(Config{})
	f.AdmitSeed([]Item{{URL: "a"}, {URL: "b"}, {URL: "c"}})
	s := NewScheduler(f, SchedConfig{Lines: 2})
	// Line 0 takes one item and queues the rest in its deque; after
	// Cancel no line is handed one, queued or stealable.
	if _, ok := s.Next(0); !ok {
		t.Fatal("no item for line 0")
	}
	s.Cancel()
	for line := 0; line < 2; line++ {
		if it, ok := s.Next(line); ok {
			t.Fatalf("line %d got %s from a canceled scheduler", line, it.URL)
		}
	}
}

func TestSchedulerStealsFromRichSibling(t *testing.T) {
	// One line refills a big batch; the other must steal rather than
	// give up, even though the shared frontier is empty by then.
	f := New(Config{})
	var seed []Item
	for i := 0; i < 16; i++ {
		seed = append(seed, Item{URL: fmt.Sprintf("u%d", i), Seq: i})
	}
	f.AdmitSeed(seed)
	s := NewScheduler(f, SchedConfig{Lines: 2, Batch: 16, Seed: 3})
	if _, ok := s.Next(0); !ok { // line 0 drains the frontier into its deque
		t.Fatal("no item for line 0")
	}
	if f.Len() != 0 {
		t.Fatalf("frontier should be drained into line 0's deque, len=%d", f.Len())
	}
	it, ok := s.Next(1) // must come from stealing
	if !ok {
		t.Fatal("line 1 got no item")
	}
	if it.URL == "" {
		t.Fatal("stole empty item")
	}
	if got := s.deques[1].len(); got == 0 {
		t.Fatal("steal took only one item; want half the victim's deque")
	}
}
