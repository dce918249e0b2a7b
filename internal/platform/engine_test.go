package platform

import (
	"math"
	"sort"
	"testing"

	"rtopex/internal/stats"
)

func TestEventOrdering(t *testing.T) {
	e := New()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("final time %v", e.Now())
	}
}

func TestFIFOTieBreak(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New()
	var trace []float64
	e.At(10, func() {
		trace = append(trace, e.Now())
		e.At(e.Now()+5, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("trace %v", trace)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	e := New()
	e.At(10, func() {})
	e.Run()
	expectPanic(t, "past event", func() { e.At(5, func() {}) })
}

func TestStepAndPending(t *testing.T) {
	e := New()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
	e.At(1, func() {})
	if e.Pending() != 1 {
		t.Fatal("pending wrong")
	}
	if !e.Step() || e.Pending() != 0 {
		t.Fatal("step accounting wrong")
	}
}

func TestDeterminismUnderRandomInsertion(t *testing.T) {
	run := func(seed uint64) []float64 {
		r := stats.NewRNG(seed)
		e := New()
		var log []float64
		var insert func(depth int)
		insert = func(depth int) {
			if depth > 3 {
				return
			}
			n := 1 + r.Intn(3)
			for i := 0; i < n; i++ {
				d := r.Float64() * 100
				e.At(e.Now()+d, func() {
					log = append(log, e.Now())
					insert(depth + 1)
				})
			}
		}
		insert(0)
		e.Run()
		return log
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("runs diverged")
		}
	}
	// Log must be nondecreasing (causality).
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatal("time went backwards")
		}
	}
}

// expectPanic runs fn and fails unless it panics.
func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic for %s", what)
		}
	}()
	fn()
}

// TestNaNTimePanics: a NaN time compares false against everything, so it
// used to pass the past-time guard and scramble the queue's order.
func TestNaNTimePanics(t *testing.T) {
	e := New()
	expectPanic(t, "At(NaN)", func() { e.At(math.NaN(), func() {}) })
	e.At(10, func() {})
	e.Run()
	expectPanic(t, "At(NaN) after start", func() { e.At(math.NaN(), func() {}) })
	if e.Pending() != 0 {
		t.Fatalf("%d events queued by rejected calls", e.Pending())
	}
}

// FuzzFiringOrder is the order contract as a property: whatever mix of
// pre-sorted lanes, pre-start scheduling, scheduling from inside firing
// events and scheduling between single Steps produced the events, they fire
// in the order of a plain sort by (time, scheduling sequence). Times are
// small integers and lane times mostly repeat, so ties are the common case,
// and zero delays put new events at the time being fired. The seed corpus
// runs under plain go test.
func FuzzFiringOrder(f *testing.F) {
	for seed := uint64(1); seed <= 50; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		type rec struct {
			at float64
			id int
		}
		r := stats.NewRNG(seed)
		e := New()
		var all []rec
		var fired []int
		var schedule func(at float64, depth int)
		fire := func(id int, at float64, depth int) {
			if e.Now() != at {
				t.Fatalf("seed %d: event for %v fired at %v", seed, at, e.Now())
			}
			fired = append(fired, id)
			if depth < 4 {
				for k := r.Intn(3); k > 0; k-- {
					schedule(e.Now()+float64(r.Intn(4)), depth+1)
				}
			}
		}
		schedule = func(at float64, depth int) {
			id := len(all)
			all = append(all, rec{at, id})
			e.At(at, func() { fire(id, at, depth) })
		}
		// lane installs a lane of up to 40 entries unless one is pending;
		// about half of its entries tie with their predecessor.
		laneLeft := 0
		lane := func() {
			if laneLeft > 0 {
				return
			}
			n := r.Intn(41)
			times, ids := make([]float64, n), make([]int, n)
			at := e.Now() + float64(r.Intn(3))
			for i := range times {
				at += float64(r.Intn(2))
				times[i], ids[i] = at, len(all)
				all = append(all, rec{at, ids[i]})
			}
			laneLeft = n
			e.AtSorted(times, func(i int) {
				laneLeft--
				fire(ids[i], times[i], 0)
			})
		}

		for i := 10 + r.Intn(30); i > 0; i-- {
			schedule(float64(r.Intn(25)), 0)
		}
		lane()
		for i := 10 + r.Intn(30); i > 0; i-- {
			schedule(float64(r.Intn(25)), 0)
		}
		for round := 0; round < 6; round++ {
			if r.Intn(2) == 1 {
				for k := r.Intn(8); k > 0; k-- {
					e.Step()
				}
			}
			if r.Intn(2) == 1 {
				lane()
			}
			for k := r.Intn(10); k > 0; k-- {
				schedule(e.Now()+float64(r.Intn(12)), 0)
			}
			if want := len(all) - len(fired); e.Pending() != want {
				t.Fatalf("seed %d: Pending %d, want %d", seed, e.Pending(), want)
			}
		}
		e.Run()

		sort.Slice(all, func(i, j int) bool {
			if all[i].at != all[j].at {
				return all[i].at < all[j].at
			}
			return all[i].id < all[j].id
		})
		if len(fired) != len(all) {
			t.Fatalf("seed %d: fired %d of %d events", seed, len(fired), len(all))
		}
		for i := range all {
			if fired[i] != all[i].id {
				t.Fatalf("seed %d: firing %d was event %d, reference sort says %d", seed, i, fired[i], all[i].id)
			}
		}
	})
}

// TestAtSortedRejectsBadLanes: a lane time that is NaN, out of order or in
// the past panics as At does, and so does a second lane while the first is
// pending; a rejected lane leaves nothing queued.
func TestAtSortedRejectsBadLanes(t *testing.T) {
	fire := func(int) {}
	e := New()
	expectPanic(t, "NaN lane time", func() { e.AtSorted([]float64{1, math.NaN(), 3}, fire) })
	expectPanic(t, "unsorted lane", func() { e.AtSorted([]float64{1, 3, 2}, fire) })
	if e.Pending() != 0 {
		t.Fatalf("%d events queued by rejected lanes", e.Pending())
	}
	e.AtSorted([]float64{5, 5, 9}, fire)
	expectPanic(t, "second pending lane", func() { e.AtSorted([]float64{6}, fire) })
	e.Run()
	expectPanic(t, "lane in the past", func() { e.AtSorted([]float64{8}, fire) })
	e.AtSorted([]float64{9, 10}, fire) // the first lane has drained
	if e.Pending() != 2 {
		t.Fatalf("Pending %d after a second lane, want 2", e.Pending())
	}
}

// laneHook counts engine activity as harness.EngineStats does.
type laneHook struct{ scheduled, executed int }

func (h *laneHook) OnAt(at, now float64) { h.scheduled++ }
func (h *laneHook) OnStep(now float64)   { h.executed++ }

// TestAtSortedCountsAndAllocates: the hook sees one OnAt per lane entry
// and one OnStep per firing, and installing and running a lane allocates
// nothing.
func TestAtSortedCountsAndAllocates(t *testing.T) {
	times := []float64{0, 0, 1, 4, 4, 4, 7}
	h := &laneHook{}
	e := New()
	e.SetHook(h)
	e.At(4, func() {})
	e.AtSorted(times, func(int) {})
	if e.Pending() != 8 || h.scheduled != 8 {
		t.Fatalf("Pending %d, OnAt %d, want 8 and 8", e.Pending(), h.scheduled)
	}
	e.Run()
	if h.executed != 8 {
		t.Fatalf("OnStep %d, want 8", h.executed)
	}
	fire := func(int) {}
	allocs := testing.AllocsPerRun(100, func() {
		e := New()
		e.AtSorted(times, fire)
		e.Run()
	})
	if allocs > 1 { // the Engine itself
		t.Fatalf("%v allocations per lane run, want at most the engine's one", allocs)
	}
}

// TestSteadyStateAllocationFree: once the heap has grown to its working
// size, scheduling a pre-bound func and stepping allocates nothing.
func TestSteadyStateAllocationFree(t *testing.T) {
	e := New()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.At(float64(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+3, fn)
		e.At(e.Now()+1, fn)
		e.At(e.Now()+2, fn)
		for e.Step() {
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per At+Step round, want 0", allocs)
	}
}

// BenchmarkEngineThroughput runs the event pattern of a simulation: 20 000
// arrivals scheduled before the start in basestation-major order, each of
// which starts a chain of four in-run events on pre-bound funcs. One op is
// one such run on a fresh engine.
func BenchmarkEngineThroughput(b *testing.B) {
	const basestations, subframes, chain = 4, 5000, 4
	var e *Engine
	hops := 0
	var step func()
	step = func() {
		hops++
		if hops%chain != 0 {
			e.At(e.Now()+150, step)
		}
	}
	arrive := func() { e.At(e.Now()+150, step) }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e = New()
		for bs := 0; bs < basestations; bs++ {
			for j := 0; j < subframes; j++ {
				e.At(float64(1000*j+37*bs), arrive)
			}
		}
		e.Run()
	}
	events := float64(b.N*basestations*subframes + hops)
	b.ReportMetric(events/b.Elapsed().Seconds(), "events/s")
}
