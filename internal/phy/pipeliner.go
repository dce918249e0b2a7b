package phy

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Pipeliner overlaps the processing of consecutive subframes — the paper's
// Fig. 5 pipelining: stage N of subframe j runs concurrently with stage N−1
// of subframe j+1, because the precedence constraints are per subframe, not
// global. Depth receivers are in flight at once, each borrowed from an
// Arena; when a shared Pool is supplied, every in-flight subframe drives its
// stages through a private Lane so their subtasks interleave on the same
// workers and no core idles while any subframe has runnable work.
//
// Submit blocks while the in-flight window is full, which is the
// backpressure bound: at most Depth subframes hold receivers (and their
// megabytes of decoder scratch) at any instant.
type Pipeliner struct {
	pc     PipelinerConfig
	jobs   chan pipeJob
	wg     sync.WaitGroup
	closed atomic.Bool
}

// PipelinerConfig configures a Pipeliner.
type PipelinerConfig struct {
	// Arena lends the in-flight receivers. Required.
	Arena *Arena
	// Pool, when non-nil with more than one worker, fans each stage's
	// subtasks out across the shared workers (each in-flight subframe on its
	// own Lane). Nil runs each subframe's stages serially on its pipeline
	// goroutine — cross-subframe overlap still happens, intra-stage fan-out
	// does not.
	Pool *Pool
	// Depth is the in-flight window: how many subframes may be processing
	// at once. Values below 1 mean 1 (serial, but still asynchronous).
	Depth int
	// OnStart, when non-nil, is called as a subframe leaves the Submit
	// queue and begins processing.
	OnStart func(tag uint64)
	// OnStage, when non-nil, is called after each pipeline stage completes.
	OnStage func(tag uint64, stage TaskName, elapsed time.Duration)
	// OnDone, when non-nil, is called with the subframe's outcome. res is
	// only valid during the call: it aliases the receiver's scratch, which
	// returns to the arena when OnDone does. Callbacks run on the pipeline
	// goroutines; a slow OnDone stalls that lane.
	OnDone func(tag uint64, res Result, err error)
}

// pipeJob is one submitted subframe.
type pipeJob struct {
	tag uint64
	cfg Config
	iq  [][]complex128
	n0  float64
}

// NewPipeliner starts a pipeliner with Depth worker goroutines.
func NewPipeliner(pc PipelinerConfig) (*Pipeliner, error) {
	if pc.Arena == nil {
		return nil, fmt.Errorf("phy: pipeliner requires an arena")
	}
	if pc.Depth < 1 {
		pc.Depth = 1
	}
	pl := &Pipeliner{pc: pc, jobs: make(chan pipeJob)}
	for i := 0; i < pc.Depth; i++ {
		pl.wg.Add(1)
		go pl.worker()
	}
	return pl, nil
}

// Submit hands one subframe to the pipeline, blocking while Depth subframes
// are already in flight. The caller must not mutate iq until the subframe's
// OnDone fires. Tags are opaque; completions are reported per tag and may
// fire out of submission order once Depth > 1. Submit must not be called
// concurrently with Close.
func (pl *Pipeliner) Submit(tag uint64, cfg Config, iq [][]complex128, n0 float64) error {
	if pl.closed.Load() {
		return fmt.Errorf("phy: pipeliner is closed")
	}
	pl.jobs <- pipeJob{tag: tag, cfg: cfg, iq: iq, n0: n0}
	return nil
}

// Close drains the in-flight window and stops the pipeline goroutines. It
// returns once every submitted subframe's OnDone has fired. Idempotent.
func (pl *Pipeliner) Close() {
	if pl.closed.CompareAndSwap(false, true) {
		close(pl.jobs)
	}
	pl.wg.Wait()
}

func (pl *Pipeliner) worker() {
	defer pl.wg.Done()
	var ln *Lane
	if pl.pc.Pool != nil {
		ln = pl.pc.Pool.NewLane()
	}
	for j := range pl.jobs {
		if f := pl.pc.OnStart; f != nil {
			f(j.tag)
		}
		rx, res, err := pl.process(ln, j)
		if f := pl.pc.OnDone; f != nil {
			f(j.tag, res, err)
		}
		// After OnDone: res aliases rx's scratch, so the receiver may only
		// recirculate once the callback has consumed it.
		pl.pc.Arena.Put(rx)
	}
}

// process runs one subframe start to finish on the calling goroutine,
// returning the borrowed receiver for release.
func (pl *Pipeliner) process(ln *Lane, j pipeJob) (*Receiver, Result, error) {
	rx, err := pl.pc.Arena.Get(j.cfg)
	if err != nil {
		return nil, Result{}, err
	}
	stages, err := rx.Pipeline(j.iq, j.n0)
	if err != nil {
		return rx, Result{}, err
	}
	for _, stg := range stages {
		var start time.Time
		if pl.pc.OnStage != nil {
			start = time.Now()
		}
		if pl.pc.Pool != nil {
			pl.pc.Pool.RunOn(ln, stg.Subtasks)
		} else {
			for _, sub := range stg.Subtasks {
				sub()
			}
		}
		if pl.pc.OnStage != nil {
			pl.pc.OnStage(j.tag, stg.Name, time.Since(start))
		}
	}
	return rx, rx.Result(), nil
}
