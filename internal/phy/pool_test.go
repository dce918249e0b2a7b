package phy

import (
	"bytes"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"rtopex/internal/bits"
	"rtopex/internal/channel"
	"rtopex/internal/stats"
)

func TestPoolRunsEverySubtaskOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		var counts [100]atomic.Int64
		tasks := make([]func(), len(counts))
		for i := range tasks {
			i := i
			tasks[i] = func() { counts[i].Add(1) }
		}
		for round := 0; round < 50; round++ {
			p.Run(tasks)
		}
		for i := range counts {
			if got := counts[i].Load(); got != 50 {
				t.Fatalf("workers=%d: task %d ran %d times, want 50", workers, i, got)
			}
		}
		p.Close()
	}
}

func TestPoolBarrierBetweenStages(t *testing.T) {
	// Stage N+1 must observe every write of stage N.
	p := NewPool(4)
	defer p.Close()
	buf := make([]int, 64)
	fill := make([]func(), len(buf))
	var sum atomic.Int64
	verify := make([]func(), len(buf))
	for i := range buf {
		i := i
		fill[i] = func() { buf[i] = i + 1 }
		verify[i] = func() { sum.Add(int64(buf[i])) }
	}
	want := int64(len(buf) * (len(buf) + 1) / 2)
	for round := 0; round < 25; round++ {
		for i := range buf {
			buf[i] = 0
		}
		sum.Store(0)
		p.Run(fill)
		p.Run(verify)
		if got := sum.Load(); got != want {
			t.Fatalf("round %d: stage barrier leaked: sum %d, want %d", round, got, want)
		}
	}
}

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

func TestPoolZeroAndSingleWork(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	p.Run(nil)
	ran := false
	p.Run([]func(){func() { ran = true }})
	if !ran {
		t.Fatal("single subtask did not run")
	}
	if p.workers != 4 {
		t.Fatalf("workers = %d, want 4", p.workers)
	}
	if NewPool(0).workers < 1 {
		t.Fatal("default pool has no workers")
	}
}

// TestParallelMatchesSerialGrid is the bit-exactness regression for the
// parallel fast path: across random seeds × MCS × antenna configs × SNRs,
// ProcessParallel must produce exactly the Result of the serial Process —
// payload bits, CRC verdicts, and per-block iteration counts. Run under
// -race in CI, this also shakes out data races between stage subtasks.
//
// The grid runs once per kernel path (AVX2 kernels, scalar code), and the
// serial Results of the two paths must be identical as well.
func TestParallelMatchesSerialGrid(t *testing.T) {
	var perPath [][]Result
	eachKernelPath(t, func(t *testing.T) { perPath = append(perPath, parallelSerialGrid(t)) })
	if len(perPath) < 2 {
		return
	}
	for i, want := range perPath[0] {
		got := perPath[1][i]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: scalar result %+v differs from kernel result %+v", i, got, want)
		}
	}
}

// parallelSerialGrid runs the grid on the current kernel path and returns a
// copy of every serial Result in grid order.
func parallelSerialGrid(t *testing.T) []Result {
	var results []Result
	type gridPoint struct {
		mcs, antennas int
		snrDB         float64
	}
	grid := []gridPoint{
		{0, 1, 10}, {0, 2, 0}, {5, 2, 12}, {5, 4, 4},
		{13, 1, 22}, {13, 2, 8}, {16, 2, 14}, {21, 2, 25},
		{21, 4, 10}, {27, 1, 30}, {27, 2, 18}, {27, 4, 12},
	}
	pool := NewPool(8)
	defer pool.Close()
	seeds := 2 // per grid point → 24 cases ≥ the required 20
	if testing.Short() {
		seeds = 1
	}
	for _, g := range grid {
		cfg := testConfig(g.mcs, g.antennas)
		tx, err := NewTransmitter(cfg)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		par, err := NewReceiver(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < seeds; s++ {
			seed := uint64(1000 + 17*g.mcs + 3*g.antennas + s)
			payload := make([]byte, tx.TBS())
			r := stats.NewRNG(seed)
			bits.RandomBits(payload, r.Uint64)
			wave, err := tx.Transmit(payload)
			if err != nil {
				t.Fatal(err)
			}
			ch, err := channel.New(g.snrDB, g.antennas, seed+1)
			if err != nil {
				t.Fatal(err)
			}
			iq, _ := ch.Apply(wave)

			want, err := serial.Process(iq, ch.N0())
			if err != nil {
				t.Fatal(err)
			}
			got, err := pool.ProcessParallel(par, iq, ch.N0())
			if err != nil {
				t.Fatal(err)
			}

			if got.OK != want.OK || got.Iterations != want.Iterations {
				t.Fatalf("mcs=%d ant=%d snr=%v seed=%d: parallel (ok=%v it=%d) vs serial (ok=%v it=%d)",
					g.mcs, g.antennas, g.snrDB, seed, got.OK, got.Iterations, want.OK, want.Iterations)
			}
			if bits.HammingDistance(got.Payload, want.Payload) != 0 {
				t.Fatalf("mcs=%d ant=%d snr=%v seed=%d: payload bits differ", g.mcs, g.antennas, g.snrDB, seed)
			}
			for r := range want.BlockOK {
				if got.BlockOK[r] != want.BlockOK[r] || got.BlockIterations[r] != want.BlockIterations[r] {
					t.Fatalf("mcs=%d ant=%d snr=%v seed=%d block %d: (ok=%v it=%d) vs (ok=%v it=%d)",
						g.mcs, g.antennas, g.snrDB, seed, r,
						got.BlockOK[r], got.BlockIterations[r], want.BlockOK[r], want.BlockIterations[r])
				}
			}
			results = append(results, Result{
				Payload:         bytes.Clone(want.Payload),
				OK:              want.OK,
				BlockOK:         slices.Clone(want.BlockOK),
				BlockIterations: slices.Clone(want.BlockIterations),
				Iterations:      want.Iterations,
			})
		}
	}
	return results
}

// TestProcessAllocFree: the steady-state serial hot path must not allocate,
// on the kernels and on the scalar code.
func TestProcessAllocFree(t *testing.T) {
	cfg := testConfig(27, 2)
	tx, _ := NewTransmitter(cfg)
	wave, _ := tx.Transmit(randomPayload(t, tx, 600))
	ch, _ := channel.New(30, 2, 601)
	iq, _ := ch.Apply(wave)
	rx, _ := NewReceiver(cfg)
	eachKernelPath(t, func(t *testing.T) {
		if _, err := rx.Process(iq, ch.N0()); err != nil { // warm up
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := rx.Process(iq, ch.N0()); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("Process allocates %.1f objects per subframe, want 0", allocs)
		}
	})
}
