package frontier

import (
	"fmt"
	"sync"
	"testing"
)

func TestBloomNoFalseNegatives(t *testing.T) {
	b := NewBloom(1<<14, 0)
	for i := 0; i < 1000; i++ {
		b.Add(fmt.Sprintf("http://site/watch?v=%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !b.MaybeContains(fmt.Sprintf("http://site/watch?v=%d", i)) {
			t.Fatalf("false negative for v=%d", i)
		}
	}
}

func TestBloomFalsePositiveRateReasonable(t *testing.T) {
	// 1000 elements in 16Ki bits ≈ 16 bits/element: the FP rate should
	// be well under 5%.
	b := NewBloom(1<<14, 0)
	for i := 0; i < 1000; i++ {
		b.Add(fmt.Sprintf("http://site/watch?v=%d", i))
	}
	fp := 0
	for i := 0; i < 10000; i++ {
		if b.MaybeContains(fmt.Sprintf("http://other/page?id=%d", i)) {
			fp++
		}
	}
	if fp > 500 {
		t.Fatalf("false positive rate %d/10000 too high", fp)
	}
}

func TestBloomDeterministic(t *testing.T) {
	a, b := NewBloom(1<<12, 0), NewBloom(1<<12, 0)
	for i := 0; i < 200; i++ {
		a.Add(fmt.Sprintf("u%d", i))
		b.Add(fmt.Sprintf("u%d", i))
	}
	for i := range a.bits {
		if a.bits[i] != b.bits[i] {
			t.Fatalf("bit pattern diverges at word %d", i)
		}
	}
}

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
	if f.Admit(Item{URL: "a"}) {
		t.Fatal("re-admitted a seed URL")
	}
	if !f.Admit(Item{URL: "c"}) {
		t.Fatal("rejected a fresh URL")
	}
	if f.Admit(Item{URL: "c"}) {
		t.Fatal("re-admitted a dynamic URL")
	}
	if f.Len() != 3 {
		t.Fatalf("len = %d, want 3", f.Len())
	}
}

func TestFrontierMarkSeenBlocksDynamicAdmission(t *testing.T) {
	f := New(Config{})
	f.bloom.Add("seen")
	if f.Admit(Item{URL: "seen"}) {
		t.Fatal("admitted a URL the bloom filter holds")
	}
	// Seed admission is exact-set-only: a bloom entry must not block it.
	if n := f.AdmitSeed([]Item{{URL: "seen"}}); n != 1 {
		t.Fatalf("seed admission blocked by bloom: admitted %d, want 1", n)
	}
}

func TestFrontierPushSkipsDedup(t *testing.T) {
	f := New(Config{})
	f.AdmitSeed([]Item{{URL: "a"}})
	it, _ := f.Pop()
	it.Attempt++
	f.Push(it) // requeue after failure
	got, ok := f.Pop()
	if !ok || got.URL != "a" || got.Attempt != 1 {
		t.Fatalf("requeued item = %+v, %v", got, ok)
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
				s.Done()
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

func TestSchedulerRequeueRedelivers(t *testing.T) {
	f := New(Config{})
	f.AdmitSeed([]Item{{URL: "a"}, {URL: "b"}})
	s := NewScheduler(f, SchedConfig{Lines: 2})
	seen := make(map[string]int)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for l := 0; l < 2; l++ {
		wg.Add(1)
		go func(line int) {
			defer wg.Done()
			for {
				it, ok := s.Next(line)
				if !ok {
					return
				}
				mu.Lock()
				seen[it.URL]++
				first := seen[it.URL] == 1 && it.URL == "a"
				mu.Unlock()
				if first {
					it.Attempt++
					s.Requeue(it)
					continue
				}
				s.Done()
			}
		}(l)
	}
	wg.Wait()
	if seen["a"] != 2 || seen["b"] != 1 {
		t.Fatalf("deliveries = %v, want a:2 b:1", seen)
	}
}

func TestSchedulerCancelUnblocks(t *testing.T) {
	f := New(Config{})
	f.AdmitSeed([]Item{{URL: "a"}})
	s := NewScheduler(f, SchedConfig{Lines: 2})
	// Line 0 takes the only item and never retires it; line 1 blocks.
	if _, ok := s.Next(0); !ok {
		t.Fatal("no item for line 0")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, ok := s.Next(1); ok {
			t.Error("Next returned an item after cancel")
		}
	}()
	s.Cancel()
	<-done
	if _, ok := s.Next(0); ok {
		t.Fatal("Next on canceled scheduler returned an item")
	}
}

func TestSchedulerStealsFromRichSibling(t *testing.T) {
	// One line refills a big batch; the other must steal rather than
	// block, even though the shared frontier is empty by then.
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

func TestYieldEstimatorBoostsByClass(t *testing.T) {
	e := NewYieldEstimator(0.5)
	if b := e.Boost("http://s/watch?v=9"); b != 0 {
		t.Fatalf("unseen class boost = %v, want 0", b)
	}
	e.Observe("http://s/watch?v=1", 4)
	e.Observe("http://s/watch?v=2", 4)
	if b := e.Boost("http://s/watch?v=9"); b <= 0.5 {
		t.Fatalf("high-yield class boost = %v, want > 0.5", b)
	}
	if b := e.Boost("http://s/about"); b != 0 {
		t.Fatalf("other class boost = %v, want 0", b)
	}
}

func TestURLClass(t *testing.T) {
	cases := []struct{ url, want string }{
		{"http://site/watch?v=123", "/watch?v"},
		{"http://site/watch?v=999", "/watch?v"},
		{"http://site/user/42/posts", "/user/#/posts"},
		{"http://site/about", "/about"},
		{"http://site", "/"},
		{"http://site/s?b=2&a=1", "/s?a&b"},
	}
	for _, c := range cases {
		if got := URLClass(c.url); got != c.want {
			t.Errorf("URLClass(%q) = %q, want %q", c.url, got, c.want)
		}
	}
}
