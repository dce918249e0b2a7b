package obs

import (
	"fmt"
	"sync"
	"testing"

	"rtopex/internal/trace"
)

// TestRegistryConcurrentExactCounts hammers one registry from many
// goroutines — counters, gauges, histograms, snapshots, and Prometheus
// renders all interleaved — and checks the merged totals are exact. Run
// under -race (make race does) this is the package's data-race probe.
func TestRegistryConcurrentExactCounts(t *testing.T) {
	const (
		goroutines = 16
		perG       = 2000
	)
	reg := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := reg.Counter("ops_total")
			mine := reg.Counter("ops_total", L("g", fmt.Sprint(g)))
			h := reg.Histogram("lat_us")
			for i := 0; i < perG; i++ {
				c.Inc()
				mine.Inc()
				reg.Gauge("last", L("g", fmt.Sprint(g))).Set(float64(i))
				h.Observe(float64(i%100 + 1))
				if i%500 == 0 {
					_ = reg.Snapshot()
				}
			}
		}(g)
	}
	// Concurrent readers while writers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var sink discard
			_ = reg.WriteProm(&sink)
		}
	}()
	wg.Wait()

	if got := reg.Counter("ops_total").Value(); got != goroutines*perG {
		t.Fatalf("ops_total = %d, want %d", got, goroutines*perG)
	}
	for g := 0; g < goroutines; g++ {
		if got := reg.Counter("ops_total", L("g", fmt.Sprint(g))).Value(); got != perG {
			t.Fatalf("ops_total{g=%d} = %d, want %d", g, got, perG)
		}
	}
	if got := reg.Histogram("lat_us").Count(); got != goroutines*perG {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestShardedRegistriesMergeExact models the sweep deployment: one registry
// per worker, merged at the end. The merged counts must equal a serial fill.
func TestShardedRegistriesMergeExact(t *testing.T) {
	const shards = 8
	regs := make([]*Registry, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		regs[s] = NewRegistry()
		wg.Add(1)
		go func(r *Registry, s int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("done_total").Inc()
				r.Histogram("v").Observe(float64(s*1000 + i))
			}
		}(regs[s], s)
	}
	wg.Wait()

	total := NewRegistry()
	for _, r := range regs {
		total.Merge(r)
	}
	if got := total.Counter("done_total").Value(); got != shards*1000 {
		t.Fatalf("merged counter = %d, want %d", got, shards*1000)
	}
	h := total.Histogram("v").Value()
	if h.Count != shards*1000 || h.Min != 0 || h.Max != shards*1000-1 {
		t.Fatalf("merged histogram: %+v", h)
	}
}

// TestLockedTracerConcurrentEmit hammers a ring and the accountant, neither
// synchronized on its own, through trace.Locked from many emitters and
// checks the retained event count is exact.
func TestLockedTracerConcurrentEmit(t *testing.T) {
	const (
		goroutines = 8
		perG       = 1000
	)
	ring := trace.NewRing(0) // unbounded: every event retained
	acct := NewCoreAccountant()
	sink := trace.Locked(trace.Tee(ring, acct))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				base := float64(i * 10)
				sink.Emit(trace.Event{Time: base, Core: g, Event: trace.EvStart})
				sink.Emit(trace.Event{Time: base + 5, Core: g, Event: trace.EvFinish})
			}
		}(g)
	}
	wg.Wait()

	if got := len(ring.Events()); got != goroutines*perG*2 {
		t.Fatalf("ring retained %d events, want %d", got, goroutines*perG*2)
	}
	for _, r := range acct.Reports(goroutines, 0) {
		if r.BusyUS != perG*5 {
			t.Fatalf("core %d busy = %v, want %d", r.Core, r.BusyUS, perG*5)
		}
	}
}
