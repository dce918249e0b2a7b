package trace

// This file is the run-level event-tracing layer (the load-trace generator
// lives in trace.go). A simulation run, when tracing is enabled, emits one
// Event per scheduler decision — job arrival, start, phase transitions,
// drops, finishes, and the full migration-batch lifecycle of Fig. 12 — into
// a Tracer sink. The ring sink bounds memory on long runs; the JSON
// exporter makes a run's decisions diffable and renderable (cmd/rtoptrace).
//
// See README.md in this directory for the schema.

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// Kind identifies one traced event type.
type Kind uint8

// Event kinds. The mig-* kinds follow the migration-batch lifecycle of the
// paper's Fig. 12: a batch is planned onto an idle host (state 1 → 2), runs
// until it completes or the host's own subframe preempts it (state 2 → 3),
// and is finally consumed, awaited, recomputed, or abandoned by its owner.
const (
	// EvArrive: a subframe reached the compute node (Core is -1: no core
	// has been chosen yet).
	EvArrive Kind = iota
	// EvStart: a job began executing on Core.
	EvStart
	// EvPhase: a job entered a pipeline phase (Detail: fft/demod/decode).
	EvPhase
	// EvDrop: the slack check dropped the job (Detail: failing phase).
	EvDrop
	// EvFinish: the job ran to completion (Detail: ack/late/decodefail).
	EvFinish
	// EvMigPlan: a migration batch was installed on idle host Core
	// (Detail: "fft n=…" or "decode n=…").
	EvMigPlan
	// EvMigComplete: the host ran the batch to natural completion.
	EvMigComplete
	// EvMigPreempt: the host's own subframe preempted the batch.
	EvMigPreempt
	// EvMigConsume: the owner consumed the batch's ready results.
	EvMigConsume
	// EvMigWait: the owner waited for an in-flight batch (cheaper than
	// recomputing; Detail: wait time in µs).
	EvMigWait
	// EvMigRecompute: the owner recomputed unfinished subtasks locally
	// (Detail: subtask count and recompute time).
	EvMigRecompute
	// EvMigAbandon: the owner dropped its job and released the batch.
	EvMigAbandon

	numKinds
)

var kindNames = [numKinds]string{
	EvArrive:       "arrive",
	EvStart:        "start",
	EvPhase:        "phase",
	EvDrop:         "drop",
	EvFinish:       "finish",
	EvMigPlan:      "mig-plan",
	EvMigComplete:  "mig-complete",
	EvMigPreempt:   "mig-preempt",
	EvMigConsume:   "mig-consume",
	EvMigWait:      "mig-wait",
	EvMigRecompute: "mig-recompute",
	EvMigAbandon:   "mig-abandon",
}

// String returns the kind's schema name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MarshalText serializes the kind as its schema name.
func (k Kind) MarshalText() ([]byte, error) {
	if int(k) >= len(kindNames) {
		return nil, fmt.Errorf("trace: unknown event kind %d", int(k))
	}
	return []byte(kindNames[k]), nil
}

// UnmarshalText parses a schema name back into a kind.
func (k *Kind) UnmarshalText(b []byte) error {
	s := string(b)
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// Event is one traced scheduler decision. Time is absolute simulation
// microseconds; Core is the core the event concerns (-1 when none applies);
// BS/Subframe identify the job the event belongs to. For migration events
// the job is the batch's *owner* while Core is the *host* executing it.
type Event struct {
	Time     float64 `json:"t"`
	Core     int     `json:"core"`
	BS       int     `json:"bs"`
	Subframe int     `json:"sf"`
	Event    Kind    `json:"ev"`
	Detail   string  `json:"detail,omitempty"`
}

// Tracer is an event sink a simulation run emits into. Implementations must
// tolerate events arriving in emission order, which is nondecreasing in
// engine time but may interleave cores. A nil Tracer (the normal case)
// disables tracing entirely: emit sites guard with a single nil check, so a
// disabled run pays no allocation or call overhead.
type Tracer interface {
	// Enabled reports whether events should be constructed at all.
	Enabled() bool
	// Emit records one event.
	Emit(e Event)
}

// Ring is a Tracer retaining the most recent events in a fixed-capacity
// ring buffer, so tracing arbitrarily long runs has bounded memory. A
// capacity ≤ 0 retains everything.
type Ring struct {
	cap     int
	buf     []Event
	head    int // index of the oldest event once the buffer is full
	dropped int64
}

// NewRing creates a ring sink. capacity ≤ 0 means unbounded.
func NewRing(capacity int) *Ring { return &Ring{cap: capacity} }

// Enabled implements Tracer.
func (r *Ring) Enabled() bool { return true }

// Emit implements Tracer, overwriting the oldest event when full.
func (r *Ring) Emit(e Event) {
	if r.cap <= 0 || len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head = (r.head + 1) % r.cap
	r.dropped++
}

// Len reports the number of retained events.
func (r *Ring) Len() int { return len(r.buf) }

// Dropped reports how many events were overwritten by newer ones.
func (r *Ring) Dropped() int64 { return r.dropped }

// Events returns the retained events in emission order (a copy).
func (r *Ring) Events() []Event {
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.head:]...)
	out = append(out, r.buf[:r.head]...)
	return out
}

// Reset discards all retained events and the drop count.
func (r *Ring) Reset() {
	r.buf = r.buf[:0]
	r.head = 0
	r.dropped = 0
}

var _ Tracer = (*Ring)(nil)

// locked serializes access to an underlying sink.
type locked struct {
	mu sync.Mutex
	t  Tracer
}

// Locked wraps a Tracer so concurrent goroutines may Emit into it safely.
// The discrete-event simulation emits from a single goroutine and needs no
// wrapping; the realtime layer's worker threads emit concurrently and must
// wrap their sink.
func Locked(t Tracer) Tracer { return &locked{t: t} }

// Enabled implements Tracer.
func (l *locked) Enabled() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.t.Enabled()
}

// Emit implements Tracer.
func (l *locked) Emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t.Emit(e)
}

type tee struct{ sinks []Tracer }

// Tee fans each event out to every sink, in order. It is Enabled when any
// sink is, and sinks that report disabled are skipped on Emit. Nil sinks are
// dropped; a tee of zero or one live sinks collapses to the obvious thing.
// Nested tees are spliced flat, so composing an existing tee with one more
// sink (arming a flight recorder over a run's ring+accountant pair) costs a
// single dispatch per sink per event, not a dispatch per nesting level.
// The typical use is recording a run into a Ring while a CoreAccountant
// tallies utilization from the same stream.
func Tee(sinks ...Tracer) Tracer {
	live := make([]Tracer, 0, len(sinks))
	for _, s := range sinks {
		switch s := s.(type) {
		case nil:
		case *tee:
			live = append(live, s.sinks...)
		default:
			live = append(live, s)
		}
	}
	if len(live) == 1 {
		return live[0]
	}
	return &tee{sinks: live}
}

// Enabled implements Tracer.
func (t *tee) Enabled() bool {
	for _, s := range t.sinks {
		if s.Enabled() {
			return true
		}
	}
	return false
}

// Emit implements Tracer.
func (t *tee) Emit(e Event) {
	for _, s := range t.sinks {
		if s.Enabled() {
			s.Emit(e)
		}
	}
}

// EventLog is the exportable form of one run's trace.
type EventLog struct {
	// Scheduler names the scheduler that produced the trace.
	Scheduler string `json:"scheduler,omitempty"`
	// Cores is the core count of the run (0 when unknown).
	Cores int `json:"cores,omitempty"`
	// Dropped counts events the sink overwrote (ring overflow): the log is
	// the *tail* of the run when nonzero.
	Dropped int64 `json:"dropped,omitempty"`
	// Events are in emission order.
	Events []Event `json:"events"`
}

// WriteJSON serializes the log as a single JSON document. The output is
// deterministic: identical logs produce byte-identical documents.
func (l *EventLog) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(l)
}

// ReadEventLog parses a JSON event log.
func ReadEventLog(r io.Reader) (*EventLog, error) {
	var l EventLog
	dec := json.NewDecoder(r)
	if err := dec.Decode(&l); err != nil {
		return nil, fmt.Errorf("trace: bad event log: %v", err)
	}
	return &l, nil
}
