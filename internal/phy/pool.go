package phy

import (
	"runtime"
	"sync/atomic"
)

// Pool executes the subtasks of a pipeline stage on a bounded set of
// persistent workers. It implements the paper's parallel subtask model: the
// subtasks of one stage are mutually independent (per antenna-symbol FFT,
// per antenna channel estimate, per data-symbol demod, per code-block
// decode), so they fan out across workers, and Run's return is the stage
// barrier that enforces Fig. 5's precedence constraint.
//
// The pool keeps workers parked between stages instead of spawning
// goroutines per subtask — at one stage every ~100 µs, goroutine churn
// would otherwise dominate the fan-out cost. The calling goroutine
// participates in the work, so a 1-worker pool degenerates to the serial
// loop with no synchronization at all. Run itself does not allocate.
type Pool struct {
	workers int
	work    chan func()
	stop    chan struct{} // closed by Close
	closed  atomic.Bool
	pending atomic.Int64  // subtasks of the current stage not yet finished
	done    chan struct{} // barrier: signalled when pending hits zero
}

// poolQueueCap bounds the queued subtasks. The largest stage is FFT with
// antennas × symbols subtasks (56 at 4 antennas), well under the cap, so
// sends from Run never block.
const poolQueueCap = 256

// NewPool builds an execution pool with the given concurrency. workers <= 0
// selects GOMAXPROCS. The pool spawns workers-1 goroutines; the caller of
// Run is the remaining worker.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		work:    make(chan func(), poolQueueCap),
		stop:    make(chan struct{}),
		done:    make(chan struct{}, 1),
	}
	for i := 1; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Run executes every subtask of the stage and returns when all completed —
// the stage barrier. Subtasks run concurrently on up to the pool's worker
// count of goroutines; they must be mutually independent. Run must not be
// called concurrently with itself on the same Pool.
func (p *Pool) Run(subtasks []func()) {
	n := len(subtasks)
	if n == 0 {
		return
	}
	if p.workers == 1 || n == 1 {
		for _, sub := range subtasks {
			sub()
		}
		return
	}
	p.pending.Store(int64(n))
	for _, sub := range subtasks[1:] {
		p.work <- sub
	}
	// The caller is a worker too: run the first subtask, then keep executing
	// queued work until the barrier releases.
	p.finish(subtasks[0])
	for {
		select {
		case <-p.done:
			return
		case f := <-p.work:
			p.finish(f)
		}
	}
}

// finish runs one subtask and releases the barrier if it was the last.
func (p *Pool) finish(f func()) {
	f()
	if p.pending.Add(-1) == 0 {
		p.done <- struct{}{}
	}
}

func (p *Pool) worker() {
	for {
		select {
		case <-p.stop:
			return
		case f := <-p.work:
			p.finish(f)
		}
	}
}

// Close terminates the pool's worker goroutines. The pool must be idle (no
// Run in flight). Close is idempotent and safe to call from several
// goroutines at once: exactly one caller wins the flag and closes the stop
// channel.
func (p *Pool) Close() {
	if p.closed.CompareAndSwap(false, true) {
		close(p.stop)
	}
}

// ProcessParallel runs one subframe through rx with the pipeline stages
// executed on the pool — the paper's per-subframe execution model. It is
// the parallel counterpart of rx.Process and produces a bit-identical
// Result.
func (p *Pool) ProcessParallel(rx *Receiver, iq [][]complex128, n0 float64) (Result, error) {
	stages, err := rx.Pipeline(iq, n0)
	if err != nil {
		return Result{}, err
	}
	for _, st := range stages {
		p.Run(st.Subtasks)
	}
	return rx.Result(), nil
}
