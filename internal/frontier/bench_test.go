package frontier

import (
	"fmt"
	"testing"
)

// BenchmarkFrontierPop measures the scheduler hot path: one pop through
// the tiered heap at a realistic standing depth (1 024 items or more).
func BenchmarkFrontierPop(b *testing.B) {
	seed := make([]Item, 1024+b.N)
	for i := range seed {
		seed[i] = Item{URL: fmt.Sprintf("http://site/seed?v=%d", i), Seq: i, Priority: float64(i%100) / 100}
	}
	f := New(Config{})
	f.AdmitSeed(seed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Pop()
	}
}
