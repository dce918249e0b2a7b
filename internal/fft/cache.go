package fft

import (
	"sync"
	"sync/atomic"
)

// cache is a copy-on-write map from transform size to its immutable plan.
// The chain asks for the same handful of sizes (600, 1024, 2048) a dozen
// times per subframe from every demodulation subtask, so a hit is one atomic
// load and a map read with no lock; only publishing a size seen for the
// first time takes the mutex and swaps in a copied map.
type cache[T any] struct {
	mu sync.Mutex
	m  atomic.Pointer[map[int]T]
}

// get returns the entry for size n, building and publishing it on first use.
// Concurrent first uses of one size build it once.
func (c *cache[T]) get(n int, build func(int) T) T {
	if m := c.m.Load(); m != nil {
		if v, ok := (*m)[n]; ok {
			return v
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.m.Load()
	next := map[int]T{}
	if old != nil {
		if v, ok := (*old)[n]; ok {
			return v
		}
		for k, v := range *old {
			next[k] = v
		}
	}
	v := build(n)
	next[n] = v
	c.m.Store(&next)
	return v
}

var (
	plans      cache[*Plan]       // power-of-two sizes
	smooths    cache[*smoothPlan] // 5-smooth sizes
	bluesteins cache[*bluestein]  // everything else
)
