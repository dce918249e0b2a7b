package harness

// This file is the per-run trace and metrics sink layer: run one workload
// under one scheduler with the event-trace layer attached, then export what
// happened (metrics, engine statistics, per-event trace) as JSON for offline
// analysis and for cmd/rtoptrace's timeline rendering.

import (
	"encoding/json"
	"io"

	"rtopex/internal/flight"
	"rtopex/internal/obs"
	"rtopex/internal/platform"
	"rtopex/internal/sched"
	"rtopex/internal/trace"
)

// EngineStats counts discrete-event engine activity over one run (via the
// platform hook): how many events were scheduled and executed, and the
// final simulation clock.
type EngineStats struct {
	Scheduled int64   `json:"scheduled"`
	Executed  int64   `json:"executed"`
	EndTimeUS float64 `json:"end_time_us"`
}

// OnAt implements platform.Hook.
func (s *EngineStats) OnAt(at, now float64) { s.Scheduled++ }

// OnStep implements platform.Hook.
func (s *EngineStats) OnStep(now float64) { s.Executed++; s.EndTimeUS = now }

var _ platform.Hook = (*EngineStats)(nil)

// RunResult bundles one traced run's outputs.
type RunResult struct {
	Metrics *sched.Metrics
	Engine  EngineStats
	Log     *trace.EventLog
	// Utilization is the per-core busy/migration/idle accounting derived
	// from the same event stream the log retains.
	Utilization []obs.CoreReport
}

// TracedRunObserved executes one workload under one scheduler with an event
// ring of the given capacity attached (ringCap ≤ 0 retains every event) and
// engine instrumentation enabled, plus an optional live registry and an
// optional flight recorder: the run's trace stream additionally drives a
// per-core utilization accountant, and once the run ends its engine
// statistics are added to the registry's event counters and its metrics
// are published under the scheduler's label. reg may be nil, which skips
// the registry publishing but still computes Utilization. rec, when
// non-nil, arms the deadline-miss flight recorder; the run's own
// accountant supplies the dossiers' core fractions, so arming adds no
// second accounting pass.
func TracedRunObserved(w *sched.Workload, s sched.Scheduler, cores, ringCap int, reg *obs.Registry, rec *flight.Recorder) (*RunResult, error) {
	ring := trace.NewRing(ringCap)
	acct := obs.NewCoreAccountant()
	res := &RunResult{}
	rc := sched.RunConfig{
		Cores:      cores,
		Tracer:     trace.Tee(ring, acct),
		EngineHook: &res.Engine,
	}
	if rec != nil {
		rc.Flight = rec
		rc.FlightReports = func(endUS float64) []obs.CoreReport {
			return acct.Reports(cores, endUS)
		}
	}
	m, err := sched.RunConfigured(w, s, rc)
	if err != nil {
		return nil, err
	}
	res.Metrics = m
	res.Log = &trace.EventLog{
		Scheduler: m.Scheduler,
		Cores:     cores,
		Dropped:   ring.Dropped(),
		Events:    ring.Events(),
	}
	res.Utilization = acct.Reports(cores, res.Engine.EndTimeUS)
	if reg != nil {
		res.Engine.publish(reg)
		sched.PublishMetrics(reg, m)
		acct.Publish(reg, cores, res.Engine.EndTimeUS)
	}
	return res, nil
}

// publish adds one run's engine activity to reg's event counters and sets
// its clock gauge to the run's final simulation time.
func (s *EngineStats) publish(reg *obs.Registry) {
	reg.SetHelp("rtopex_engine_events_scheduled_total", "Discrete-event engine events scheduled.")
	reg.SetHelp("rtopex_engine_events_executed_total", "Discrete-event engine events executed.")
	reg.SetHelp("rtopex_engine_clock_us", "Current simulation clock in microseconds.")
	reg.Counter("rtopex_engine_events_scheduled_total").Add(s.Scheduled)
	reg.Counter("rtopex_engine_events_executed_total").Add(s.Executed)
	reg.Gauge("rtopex_engine_clock_us").Set(s.EndTimeUS)
}

// metricsDoc is the exported metrics document: run metrics plus engine
// statistics and per-core utilization.
type metricsDoc struct {
	Metrics     *sched.Metrics   `json:"metrics"`
	Engine      EngineStats      `json:"engine"`
	Utilization []obs.CoreReport `json:"utilization,omitempty"`
}

// WriteMetricsJSON exports the run's metrics and engine statistics.
func (r *RunResult) WriteMetricsJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(metricsDoc{Metrics: r.Metrics, Engine: r.Engine, Utilization: r.Utilization})
}

// WriteTraceJSON exports the run's event trace.
func (r *RunResult) WriteTraceJSON(w io.Writer) error { return r.Log.WriteJSON(w) }
