// Package platform provides the deterministic discrete-event engine the
// C-RAN scheduler simulations run on. Time is a float64 microsecond clock;
// events fire in nondecreasing time order with FIFO tie-breaking, so a run
// is exactly reproducible from its inputs.
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
// Its queue has two lanes. Events scheduled before the engine first steps —
// a run's whole arrival schedule, tens of thousands of entries — collect in
// pre, which the first step sorts once and the run then consumes by index.
// Events scheduled from then on go to pq, a binary heap that holds only
// the handful in flight, so a push or pop costs a couple of levels rather
// than log₂ of the arrival count. Every pre event has a lower seq than any
// pq event, so taking the earlier head of the two lanes, pre first on equal
// times, is exactly the (at, seq) order of a single queue.
type Engine struct {
	now     float64
	seq     int64
	started bool
	pre     []event // sorted by (at, seq) once started; pre[:preHead] fired
	preHead int
	pq      []event // binary min-heap under event.before
	hook    Hook
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

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.pre) - e.preHead + len(e.pq) }

// start closes the pre-start lane: pre was appended in seq order, so a
// stable sort by time leaves it in (at, seq) order.
func (e *Engine) start() {
	e.started = true
	slices.SortStableFunc(e.pre, func(a, b event) int { return cmp.Compare(a.at, b.at) })
}

// nextInPre reports whether the next event is the pre lane's head (else the
// heap's root). At least one lane must be non-empty.
func (e *Engine) nextInPre() bool {
	return e.preHead < len(e.pre) && (len(e.pq) == 0 || e.pre[e.preHead].at <= e.pq[0].at)
}

// pop removes and returns the next event. Vacated slots are zeroed so a
// fired closure does not stay reachable from the queue.
func (e *Engine) pop() event {
	if e.nextInPre() {
		ev := e.pre[e.preHead]
		e.pre[e.preHead] = event{}
		e.preHead++
		if e.preHead == len(e.pre) {
			e.pre, e.preHead = nil, 0
		}
		return ev
	}
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
	if e.Pending() == 0 {
		return false
	}
	ev := e.pop()
	e.now = ev.at
	ev.do()
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
