package phy

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtopex/internal/bits"
	"rtopex/internal/channel"
)

// TestPoolCloseConcurrent is the regression for the unsynchronized closed
// flag: many goroutines racing Close (plus repeated serial calls) must leave
// the pool cleanly stopped. Under -race the pre-fix code fails here.
func TestPoolCloseConcurrent(t *testing.T) {
	for round := 0; round < 20; round++ {
		p := NewPool(4)
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				p.Close()
			}()
		}
		wg.Wait()
		p.Close() // still idempotent after the race
	}
}

// TestPoolLanesConcurrent drives several independent stage pipelines through
// one shared pool at once. Each driver alternates a fill stage and a verify
// stage on its own lane; the verify stage only sums correctly if RunOn's
// barrier held for that lane regardless of the others' traffic.
func TestPoolLanesConcurrent(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const drivers = 6
	var wg sync.WaitGroup
	errs := make(chan string, drivers)
	for d := 0; d < drivers; d++ {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			ln := p.NewLane()
			buf := make([]int, 48)
			fill := make([]func(), len(buf))
			var sum atomic.Int64
			verify := make([]func(), len(buf))
			for i := range buf {
				i := i
				fill[i] = func() { buf[i] = i + 1 }
				verify[i] = func() { sum.Add(int64(buf[i])) }
			}
			want := int64(len(buf) * (len(buf) + 1) / 2)
			for round := 0; round < 30; round++ {
				for i := range buf {
					buf[i] = 0
				}
				sum.Store(0)
				p.RunOn(ln, fill)
				p.RunOn(ln, verify)
				if got := sum.Load(); got != want {
					errs <- "driver barrier leaked"
					return
				}
			}
			_ = d
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestPipelinerMatchesSerial: every subframe pushed through a depth-3
// pipelined window must decode to exactly the serial Process result, with
// OnStart/OnStage/OnDone firing the right number of times.
func TestPipelinerMatchesSerial(t *testing.T) {
	cfg := testConfig(13, 2)
	tx, err := NewTransmitter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewReceiver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := channel.New(14, 2, 700)
	if err != nil {
		t.Fatal(err)
	}

	const n = 9
	type subframe struct {
		iq      [][]complex128
		n0      float64
		payload []byte
		want    Result
	}
	subs := make([]subframe, n)
	for i := range subs {
		payload := randomPayload(t, tx, uint64(710+i))
		wave, err := tx.Transmit(payload)
		if err != nil {
			t.Fatal(err)
		}
		iq, _ := ch.Apply(wave)
		want, err := serial.Process(iq, ch.N0())
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = subframe{
			iq: iq, n0: ch.N0(), payload: payload,
			want: Result{
				OK:         want.OK,
				Iterations: want.Iterations,
				Payload:    append([]byte(nil), want.Payload...),
			},
		}
	}

	type outcome struct {
		ok         bool
		iterations int
		payload    []byte
		err        error
	}
	var mu sync.Mutex
	got := make(map[uint64]outcome, n)
	var starts, stages atomic.Int64
	pool := NewPool(4)
	defer pool.Close()
	pl, err := NewPipeliner(PipelinerConfig{
		Arena:   NewArena(),
		Pool:    pool,
		Depth:   3,
		OnStart: func(tag uint64) { starts.Add(1) },
		OnStage: func(tag uint64, stage TaskName, elapsed time.Duration) {
			if elapsed < 0 {
				t.Errorf("negative stage time for %v", stage)
			}
			stages.Add(1)
		},
		OnDone: func(tag uint64, res Result, err error) {
			mu.Lock()
			defer mu.Unlock()
			got[tag] = outcome{
				ok:         res.OK,
				iterations: res.Iterations,
				payload:    append([]byte(nil), res.Payload...), // res dies with the callback
				err:        err,
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, sf := range subs {
		if err := pl.Submit(uint64(i), cfg, sf.iq, sf.n0); err != nil {
			t.Fatal(err)
		}
	}
	pl.Close()

	if len(got) != n {
		t.Fatalf("completions: %d, want %d", len(got), n)
	}
	if starts.Load() != n {
		t.Fatalf("OnStart fired %d times, want %d", starts.Load(), n)
	}
	if want := int64(n * len(serial.stages)); stages.Load() != want {
		t.Fatalf("OnStage fired %d times, want %d", stages.Load(), want)
	}
	for i, sf := range subs {
		o, ok := got[uint64(i)]
		if !ok {
			t.Fatalf("subframe %d never completed", i)
		}
		if o.err != nil {
			t.Fatalf("subframe %d: %v", i, o.err)
		}
		if o.ok != sf.want.OK || o.iterations != sf.want.Iterations {
			t.Fatalf("subframe %d: pipelined (ok=%v it=%d) vs serial (ok=%v it=%d)",
				i, o.ok, o.iterations, sf.want.OK, sf.want.Iterations)
		}
		if bits.HammingDistance(o.payload, sf.want.Payload) != 0 {
			t.Fatalf("subframe %d: payload differs from serial decode", i)
		}
	}
}

// TestPipelinerLifecycle covers the construction and shutdown edges: missing
// arena, config errors surfacing through OnDone, Submit-after-Close, and
// double Close.
func TestPipelinerLifecycle(t *testing.T) {
	if _, err := NewPipeliner(PipelinerConfig{}); err == nil {
		t.Fatal("pipeliner without arena accepted")
	}

	var mu sync.Mutex
	var errs []error
	pl, err := NewPipeliner(PipelinerConfig{
		Arena: NewArena(),
		OnDone: func(tag uint64, res Result, err error) {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if pl.pc.Depth != 1 {
		t.Fatalf("depth = %d, want clamped 1", pl.pc.Depth)
	}
	// Invalid config: the error must arrive via OnDone, not hang the window.
	if err := pl.Submit(0, Config{}, nil, 0); err != nil {
		t.Fatal(err)
	}
	pl.Close()
	pl.Close() // idempotent
	if len(errs) != 1 || errs[0] == nil {
		t.Fatalf("invalid config outcome = %v, want one error", errs)
	}
	if err := pl.Submit(1, Config{}, nil, 0); err == nil {
		t.Fatal("Submit after Close accepted")
	}
}
