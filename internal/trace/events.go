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
	"strconv"
	"strings"
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
	// (Detail: "n=… preempted" or "n=… slow").
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

// Render says how Event.Text builds an event's detail from Detail and Arg.
type Render uint8

const (
	// RenderLiteral: the detail is Detail itself.
	RenderLiteral Render = iota
	// RenderInt: Arg as an integer, spliced in after Detail's first '='
	// ("fft n=" and 3 render "fft n=3", "n= slow" and 2 render "n=2 slow").
	RenderInt
	// RenderG3: Arg to three significant digits ('g' format), spliced in
	// like RenderInt, so "us" and 45.2 render "45.2us".
	RenderG3
)

// Event is one traced scheduler decision. Time is absolute simulation
// microseconds; Core is the core the event concerns (-1 when none applies);
// BS/Subframe identify the job the event belongs to. For migration events
// the job is the batch's *owner* while Core is the *host* executing it.
//
// A detail that embeds a number is emitted as a constant Detail plus Arg
// and a Render code, so emitting builds no string; Text renders the schema
// string where one is read, and the JSON form carries only that string.
type Event struct {
	Time     float64 `json:"t"`
	Core     int     `json:"core"`
	BS       int     `json:"bs"`
	Subframe int     `json:"sf"`
	Event    Kind    `json:"ev"`
	Render   Render  `json:"-"`
	Detail   string  `json:"detail,omitempty"`
	Arg      float64 `json:"-"`
}

// Text returns the event's detail as the schema spells it.
func (e Event) Text() string {
	if e.Render == RenderLiteral {
		return e.Detail
	}
	i := strings.IndexByte(e.Detail, '=') + 1
	var buf [32]byte
	b := append(buf[:0], e.Detail[:i]...)
	if e.Render == RenderG3 {
		b = strconv.AppendFloat(b, e.Arg, 'g', 3, 64)
	} else {
		b = strconv.AppendInt(b, int64(e.Arg), 10)
	}
	return string(append(b, e.Detail[i:]...))
}

// MarshalJSON writes the event with its detail rendered, so a numeric event
// and its literal twin serialize to the same bytes.
func (e Event) MarshalJSON() ([]byte, error) {
	type plain Event
	e.Detail = e.Text()
	return json.Marshal(plain(e))
}

// Tracer is an event sink a simulation run emits into. Implementations must
// tolerate events arriving in emission order, which is nondecreasing in
// engine time but may interleave cores. A nil Tracer (the normal case)
// disables tracing entirely: emit sites guard with a single nil check, so a
// disabled run pays no allocation or call overhead.
type Tracer interface {
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

// NewRing creates a ring sink. capacity ≤ 0 means unbounded; a bounded
// ring allocates its whole buffer here, once.
func NewRing(capacity int) *Ring {
	r := &Ring{cap: capacity}
	if capacity > 0 {
		r.buf = make([]Event, 0, capacity)
	}
	return r
}

// Emit implements Tracer, overwriting the oldest event when full.
func (r *Ring) Emit(e Event) {
	if r.cap <= 0 || len(r.buf) < r.cap {
		r.buf = append(r.buf, e)
		return
	}
	r.buf[r.head] = e
	r.head++
	if r.head == r.cap {
		r.head = 0
	}
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

// Emit implements Tracer.
func (l *locked) Emit(e Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.t.Emit(e)
}

type tee struct{ sinks []Tracer }

// Tee fans each event out to every sink, in order. Nil sinks are dropped;
// a tee of no live sinks is nil, so emit sites still skip building events,
// and a tee of one is that sink.
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
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return &tee{sinks: live}
}

// Emit implements Tracer.
func (t *tee) Emit(e Event) {
	for _, s := range t.sinks {
		s.Emit(e)
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
