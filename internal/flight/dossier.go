// Package flight is the deadline-miss flight recorder: an always-on,
// allocation-bounded tap on the run-level trace.Tracer stream that, when a
// trigger event fires (deadline miss, drop, overrun), freezes a bounded
// pre/post-trigger window of events — plus the scheduler state, per-core
// utilization fractions, Go-runtime GC/heap readings and an optional live
// registry snapshot — into a self-contained
// **miss dossier**, written as versioned JSON to a capped on-disk spool.
//
// The design splits into a process-wide Recorder (shared spool, rate
// limiter, sequence counter, HTTP/SSE surface) and per-run Taps (per-core
// event rings plus trigger classification). A Tap implements trace.Tracer,
// so arming a run is just teeing the tap into the run's existing event
// stream; a run without a tap pays nothing — the same nil-check contract
// every emit site already honors.
//
// See README.md in this directory for the dossier schema and the
// versioning/compatibility rules.
package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"rtopex/internal/obs"
	"rtopex/internal/trace"
)

// DossierVersion is the dossier schema version. Readers accept exactly the
// versions they know; see README.md for the compatibility rules (mirroring
// the obs wire codec: unknown versions are a hard error, never a guess).
const DossierVersion = 1

// Trigger classifies what froze the window.
type Trigger string

// Trigger kinds, derived from the event stream itself: a late finish is a
// deadline miss; a drop whose detail names a pipeline phase is a slack-check
// drop; "queue-full" means the previous subframe overran its whole window.
const (
	TriggerDeadlineMiss Trigger = "deadline-miss"
	TriggerDrop         Trigger = "drop"
	TriggerOverrun      Trigger = "overrun"
)

// Classify maps one trace event to its trigger kind. The second return is
// false for events that do not trigger dossier capture.
func Classify(e trace.Event) (Trigger, bool) {
	switch e.Event {
	case trace.EvFinish:
		if e.Detail == "late" {
			return TriggerDeadlineMiss, true
		}
	case trace.EvDrop:
		if e.Detail == "queue-full" {
			return TriggerOverrun, true
		}
		return TriggerDrop, true
	}
	return "", false
}

// SchedState is the scheduler's own account of itself at the trigger
// instant: how deep the per-core backlogs are, whether migration batches
// were mid-flight, and how busy the discrete-event engine was. Schedulers
// opt in by implementing StateProvider; fields a provider cannot know stay
// zero.
type SchedState struct {
	// Scheduler names the scheduler (or live-run loop) that produced it.
	Scheduler string `json:"scheduler,omitempty"`
	// NowUS is the engine clock (or wall clock since epoch) in µs.
	NowUS float64 `json:"now_us,omitempty"`
	// QueueDepths is the pending-job backlog per core.
	QueueDepths []int `json:"queue_depths,omitempty"`
	// RunningJobs counts cores mid-subframe.
	RunningJobs int `json:"running_jobs,omitempty"`
	// InFlightBatches counts cores hosting a migrated batch (Fig. 12
	// state 2) at the trigger.
	InFlightBatches int `json:"in_flight_batches,omitempty"`
	// PendingEngineEvents is the discrete-event engine's queue depth.
	PendingEngineEvents int `json:"pending_engine_events,omitempty"`
}

// StateProvider is the snapshot interface a scheduler implements to have
// its internal state (queue depths, in-flight migration batches) embedded
// in dossiers. Implementations are called synchronously from the emitting
// goroutine, so they may read scheduler internals without locking in the
// single-threaded simulation.
type StateProvider interface {
	FlightState() SchedState
}

// Dossier is one frozen miss: everything needed to explain a single
// deadline miss offline, with no access to the run that produced it.
//
// The trace-derived sections (window, scheduler state, core fractions) are
// deterministic for a seeded simulation run — no wall clock, hostnames or
// pointers; only the Runtime and Metrics sections read live process state.
type Dossier struct {
	// Version is the schema version (DossierVersion at write time).
	Version int `json:"flight_version"`
	// Seq numbers dossiers per recorder, in capture order.
	Seq uint64 `json:"seq"`
	// Label names the run (scheduler name, "realtime", an experiment id).
	Label string `json:"label,omitempty"`
	// Trigger classifies the capture cause.
	Trigger Trigger `json:"trigger"`
	// TriggerEvent is the event that froze the window.
	TriggerEvent trace.Event `json:"trigger_event"`

	// BudgetUS is the per-subframe processing budget (the 2 ms Rx share of
	// the 3 ms HARQ deadline; dilated for live runs). 0 when unknown.
	BudgetUS float64 `json:"budget_us,omitempty"`
	// ArrivalUS / DeadlineUS bound the triggering job's budget window,
	// when the run could resolve them exactly (simulation runs can; live
	// runs derive them from the release clock).
	ArrivalUS  float64 `json:"arrival_us,omitempty"`
	DeadlineUS float64 `json:"deadline_us,omitempty"`

	// Window holds the captured events, time-ordered: PreEvents retained
	// from the per-core rings up to and including the trigger, then
	// PostEvents observed after it.
	Window     []trace.Event `json:"window"`
	PreEvents  int           `json:"pre_events"`
	PostEvents int           `json:"post_events"`
	// RingDropped counts events the pre-trigger rings had already
	// overwritten: the window is the tail of the run when nonzero.
	RingDropped int64 `json:"ring_dropped,omitempty"`

	// Cores is the per-core busy/migration/idle accounting at the trigger
	// instant, from the obs accountant replaying the same stream.
	Cores []obs.CoreReport `json:"cores,omitempty"`
	// Sched is the scheduler's state snapshot at the trigger.
	Sched *SchedState `json:"sched,omitempty"`
	// Runtime is the Go-runtime reading (GC pauses, heap) at the trigger —
	// the jitter source the paper's pinned-pthread testbed does not have.
	Runtime *obs.RuntimeSnapshot `json:"runtime,omitempty"`
	// Metrics is the live registry snapshot at the trigger, when the
	// recorder was given one.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// WriteJSON serializes the dossier as one JSON document. Identical dossiers
// produce byte-identical documents.
func (d *Dossier) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(d)
}

// ReadDossier parses and version-gates one dossier document. Unknown
// versions are a hard error: a dossier is forensic evidence, and a reader
// guessing at fields it does not understand would fabricate conclusions.
func ReadDossier(r io.Reader) (*Dossier, error) {
	var d Dossier
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("flight: bad dossier: %v", err)
	}
	if d.Version != DossierVersion {
		return nil, fmt.Errorf("flight: unsupported flight_version %d (supported: %d)", d.Version, DossierVersion)
	}
	return &d, nil
}

// ReadDossierFile reads one spooled dossier.
func ReadDossierFile(path string) (*Dossier, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDossier(f)
}

// Summary is the compact listing/streaming form of a dossier (the /dossiers
// index and the SSE /events payload).
type Summary struct {
	Seq      uint64  `json:"seq"`
	Label    string  `json:"label,omitempty"`
	Trigger  Trigger `json:"trigger"`
	TimeUS   float64 `json:"t_us"`
	Core     int     `json:"core"`
	BS       int     `json:"bs"`
	Subframe int     `json:"sf"`
	Events   int     `json:"events"`
	Path     string  `json:"path,omitempty"`
}

// Summarize extracts a dossier's summary. path may be empty (unspooled).
func (d *Dossier) Summarize(path string) Summary {
	return Summary{
		Seq:      d.Seq,
		Label:    d.Label,
		Trigger:  d.Trigger,
		TimeUS:   d.TriggerEvent.Time,
		Core:     d.TriggerEvent.Core,
		BS:       d.TriggerEvent.BS,
		Subframe: d.TriggerEvent.Subframe,
		Events:   len(d.Window),
		Path:     path,
	}
}
