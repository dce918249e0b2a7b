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
//
// A single Pool can execute stages for several subframes at once: each
// concurrent caller drives its own Lane, and the shared workers drain one
// work queue, so an idle moment in one subframe's stage is spent on
// another's — the work-conserving core of the paper's scheduling argument.
type Pool struct {
	workers int
	work    chan poolTask
	stop    chan struct{} // closed by Close
	closed  atomic.Bool
	main    Lane // the lane Run uses
}

// poolTask is one queued subtask tagged with the stage barrier it belongs to.
type poolTask struct {
	f  func()
	ln *Lane
}

// Lane is one caller's stage barrier on a shared Pool. RunOn calls on
// distinct lanes may run concurrently; a single lane must only be driven by
// one goroutine at a time. The zero Lane is not usable — get one from
// NewLane.
type Lane struct {
	pending atomic.Int64  // subtasks of the lane's current stage not yet finished
	done    chan struct{} // barrier: signalled when pending hits zero
}

// poolQueueCap bounds the queued subtasks across all lanes. The largest
// stage is FFT with antennas × symbols subtasks (56 at 4 antennas); even a
// deep cross-subframe pipeline stays well under the cap, so sends from
// RunOn all but never block.
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
		work:    make(chan poolTask, poolQueueCap),
		stop:    make(chan struct{}),
	}
	p.main.done = make(chan struct{}, 1)
	for i := 1; i < workers; i++ {
		go p.worker()
	}
	return p
}

// NewLane returns a fresh stage barrier for use with RunOn. Lanes are cheap;
// give each concurrent pipeline driver its own.
func (p *Pool) NewLane() *Lane {
	return &Lane{done: make(chan struct{}, 1)}
}

// Run executes every subtask of the stage and returns when all completed —
// the stage barrier. Subtasks run concurrently on up to Workers()
// goroutines; they must be mutually independent. Run must not be called
// concurrently with itself on the same Pool; concurrent callers use RunOn
// with private lanes.
func (p *Pool) Run(subtasks []func()) {
	p.RunOn(&p.main, subtasks)
}

// RunOn is Run with an explicit stage barrier, so several goroutines can
// drive stages through one shared Pool concurrently. While waiting for its
// own stage, the caller helps execute whatever is queued — including other
// lanes' subtasks — so no worker (caller or pooled) idles while any lane has
// runnable work.
func (p *Pool) RunOn(ln *Lane, subtasks []func()) {
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
	ln.pending.Store(int64(n))
	for _, sub := range subtasks[1:] {
		p.work <- poolTask{f: sub, ln: ln}
	}
	// The caller is a worker too: run the first subtask, then keep executing
	// queued work until this lane's barrier releases.
	p.finish(poolTask{f: subtasks[0], ln: ln})
	for {
		select {
		case <-ln.done:
			return
		case t := <-p.work:
			p.finish(t)
		}
	}
}

// finish runs one subtask and releases its lane's barrier if it was the last.
func (p *Pool) finish(t poolTask) {
	t.f()
	if t.ln.pending.Add(-1) == 0 {
		t.ln.done <- struct{}{}
	}
}

func (p *Pool) worker() {
	for {
		select {
		case <-p.stop:
			return
		case t := <-p.work:
			p.finish(t)
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

// RunStages executes a staged pipeline in order, with each stage's subtasks
// fanned out across the pool — the paper's per-subframe execution model.
func (p *Pool) RunStages(stages []Stage) {
	for _, st := range stages {
		p.Run(st.Subtasks)
	}
}

// ProcessParallel runs one subframe through rx with the pipeline stages
// executed on the pool. It is the parallel counterpart of rx.Process and
// produces a bit-identical Result.
func (p *Pool) ProcessParallel(rx *Receiver, iq [][]complex128, n0 float64) (Result, error) {
	stages, err := rx.Pipeline(iq, n0)
	if err != nil {
		return Result{}, err
	}
	p.RunStages(stages)
	return rx.Result(), nil
}
