package frontier

import (
	"fmt"
	"testing"
)

// BenchmarkFrontierPushPop measures the scheduler hot path: one admit
// plus one pop through the tiered heap.
func BenchmarkFrontierPushPop(b *testing.B) {
	f := New(Config{})
	// Pre-size tiers with a realistic standing depth.
	var seed []Item
	for i := 0; i < 1024; i++ {
		seed = append(seed, Item{URL: fmt.Sprintf("http://site/seed?v=%d", i), Seq: i, Priority: float64(i%100) / 100})
	}
	f.AdmitSeed(seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Push(Item{URL: "http://site/hot", Seq: i, Priority: float64(i%100) / 100})
		f.Pop()
	}
}
