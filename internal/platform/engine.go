// Package platform provides the deterministic discrete-event engine the
// C-RAN scheduler simulations run on. Time is a float64 microsecond clock;
// events fire in nondecreasing time order with FIFO tie-breaking, so a run
// is exactly reproducible from its inputs. A run's arrival schedule enters
// as one pre-sorted lane (AtSorted); everything the run schedules while it
// executes goes through At.
//
// The engine deliberately has no concept of goroutines or wall-clock time:
// scheduler experiments need tens of thousands of 1 ms subframes with
// microsecond-resolution timing, and running them against Go's runtime
// would measure the Go scheduler and garbage collector rather than the
// paper's design (see DESIGN.md §1).
package platform

import (
	"cmp"
	"slices"
)

// Engine is a single-threaded discrete-event simulator.
//
// Its queue has three lanes, and every event carries the sequence number of
// its scheduling call. lane is the pre-sorted lane AtSorted installs — a
// run's whole arrival schedule, tens of thousands of entries — read by index
// with one fire func for all of them. pre collects events At schedules
// before the engine first steps; the first step sorts it once and the run
// then consumes it by index. Events At schedules from then on go to pq, a
// binary heap that holds only the handful in flight, so a push or pop costs
// a couple of levels rather than log₂ of the arrival count. Each lane is in
// (at, seq) order, so firing the earliest of the three heads under that
// order is exactly the order of a single queue.
type Engine struct {
	now      float64
	seq      int64
	started  bool
	pre      []event // sorted by (at, seq) once started; pre[:preHead] fired
	preHead  int
	lane     []float64 // entry i fires laneFire(i) with seq laneSeq+i
	laneHead int       // lane[:laneHead] fired
	laneSeq  int64     // seq of the lane's first entry
	laneFire func(i int)
	pq       []event // binary min-heap under event.before
	hook     Hook
}

// Hook observes engine activity for tracing and diagnostics: OnAt fires
// when an event is scheduled (with its target time and the current clock),
// OnStep after an event executes. Both are synchronous; a hook must not
// mutate engine state. A nil hook (the default) costs one branch per call.
type Hook interface {
	OnAt(at, now float64)
	OnStep(now float64)
}

// SetHook installs (or with nil removes) the engine's observer.
func (e *Engine) SetHook(h Hook) { e.hook = h }

type event struct {
	at  float64
	seq int64
	do  func()
}

// before is the engine's total order: earlier time first, FIFO among equal
// times.
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// New creates an engine at time zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in microseconds.
func (e *Engine) Now() float64 { return e.now }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a simulation bug, and silently clamping would corrupt
// causality. So does a NaN time, which compares false against everything
// and would otherwise enter the queue and scramble its order.
func (e *Engine) At(t float64, fn func()) {
	if !(t >= e.now) {
		panic("platform: event scheduled in the past or at NaN")
	}
	if e.hook != nil {
		e.hook.OnAt(t, e.now)
	}
	e.seq++
	ev := event{at: t, seq: e.seq, do: fn}
	if !e.started {
		e.pre = append(e.pre, ev)
		return
	}
	// Sift up with a hole: parents move down until ev's slot is found.
	h := append(e.pq, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.pq = h
}

// AtSorted schedules fire(i) at times[i] for every entry, exactly as if At
// had been called for entries 0, 1, … in turn now: each entry counts as one
// scheduled event (the hook sees one OnAt per entry) and takes the next
// sequence number. times must be nondecreasing and not in the past; a NaN,
// past or out-of-order time panics. The engine reads times by index until
// its last entry has fired and neither copies, sorts nor modifies it, so a
// schedule of any length enters without an allocation. One lane can be
// pending at a time: installing a second before the first has drained
// panics.
func (e *Engine) AtSorted(times []float64, fire func(i int)) {
	if e.laneHead < len(e.lane) {
		panic("platform: AtSorted while a lane is pending")
	}
	prev := e.now
	for _, t := range times {
		if !(t >= prev) {
			panic("platform: lane time in the past, out of order or NaN")
		}
		prev = t
	}
	if e.hook != nil {
		for _, t := range times {
			e.hook.OnAt(t, e.now)
		}
	}
	e.lane, e.laneHead, e.laneSeq, e.laneFire = times, 0, e.seq+1, fire
	e.seq += int64(len(times))
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int {
	return len(e.pre) - e.preHead + len(e.lane) - e.laneHead + len(e.pq)
}

// start closes the pre-start lane: pre was appended in seq order, so a
// stable sort by time leaves it in (at, seq) order.
func (e *Engine) start() {
	e.started = true
	slices.SortStableFunc(e.pre, func(a, b event) int { return cmp.Compare(a.at, b.at) })
}

// The lanes next can pick.
const (
	fromNone = iota
	fromPre
	fromLane
	fromHeap
)

// next reports which lane holds the next event under (at, seq).
func (e *Engine) next() int {
	src, head := fromNone, event{}
	if e.preHead < len(e.pre) {
		src, head = fromPre, e.pre[e.preHead]
	}
	if e.laneHead < len(e.lane) {
		// The lane's seqs are one contiguous block, so against another
		// lane's event its head compares as its first entry does.
		ev := event{at: e.lane[e.laneHead], seq: e.laneSeq}
		if src == fromNone || ev.before(head) {
			src, head = fromLane, ev
		}
	}
	if len(e.pq) > 0 && (src == fromNone || e.pq[0].before(head)) {
		src = fromHeap
	}
	return src
}

// popPre removes and returns the pre lane's head. Vacated slots are zeroed
// so a fired closure does not stay reachable from the queue.
func (e *Engine) popPre() event {
	ev := e.pre[e.preHead]
	e.pre[e.preHead] = event{}
	e.preHead++
	if e.preHead == len(e.pre) {
		e.pre, e.preHead = nil, 0
	}
	return ev
}

// popHeap removes and returns the heap's root.
func (e *Engine) popHeap() event {
	h := e.pq
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	// Sift last down from the root with a hole.
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(last) {
			break
		}
		h[i] = h[c]
		i = c
	}
	if n > 0 {
		h[i] = last
	}
	e.pq = h
	return top
}

// Step executes the next event and reports whether one existed.
func (e *Engine) Step() bool {
	if !e.started {
		e.start()
	}
	switch e.next() {
	case fromNone:
		return false
	case fromLane:
		i, fire := e.laneHead, e.laneFire
		e.now = e.lane[i]
		e.laneHead++
		if e.laneHead == len(e.lane) {
			// Drained: release the caller's slice and func.
			e.lane, e.laneHead, e.laneFire = nil, 0, nil
		}
		fire(i)
	case fromPre:
		ev := e.popPre()
		e.now = ev.at
		ev.do()
	default:
		ev := e.popHeap()
		e.now = ev.at
		ev.do()
	}
	if e.hook != nil {
		e.hook.OnStep(e.now)
	}
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}
