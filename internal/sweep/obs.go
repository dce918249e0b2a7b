package sweep

import (
	"time"

	"rtopex/internal/harness"
	"rtopex/internal/obs"
)

// sweepObs publishes the live progress of one sweep into a registry: the
// units-done/running/failed counters and worker-pool occupancy a
// mid-sweep scrape shows, plus a per-unit wall-time histogram and each
// finished table's summary gauges. All methods are no-ops on a nil
// receiver, so the hot path stays branch-cheap when no registry is wired.
type sweepObs struct {
	reg     *obs.Registry
	running *obs.Gauge
	done    *obs.Counter
	failed  *obs.Counter
	seconds *obs.Histogram
	// pusher, when non-nil, streams the registry to a central collector
	// after every finished unit (the distributed-sweep live view). The
	// pusher serializes its own sends, so concurrent workers are safe.
	pusher *obs.Pusher
}

func newSweepObs(reg *obs.Registry, pusher *obs.Pusher, total, pending, reused, workers int) *sweepObs {
	if reg == nil {
		return nil
	}
	reg.SetHelp("rtopex_sweep_units_total", "Schedulable units in this sweep (experiments × replicas).")
	reg.SetHelp("rtopex_sweep_units_pending_total", "Units to run after resume reuse.")
	reg.SetHelp("rtopex_sweep_units_reused_total", "Units satisfied from the resumed store.")
	reg.SetHelp("rtopex_sweep_units_done_total", "Units finished (success or failure).")
	reg.SetHelp("rtopex_sweep_units_failed_total", "Units that panicked, errored or timed out.")
	reg.SetHelp("rtopex_sweep_workers", "Size of the sweep worker pool.")
	reg.SetHelp("rtopex_sweep_workers_busy", "Workers currently executing a unit.")
	reg.SetHelp("rtopex_sweep_unit_seconds", "Per-unit wall time.")
	reg.Counter("rtopex_sweep_units_total").Add(int64(total))
	reg.Counter("rtopex_sweep_units_pending_total").Add(int64(pending))
	reg.Counter("rtopex_sweep_units_reused_total").Add(int64(reused))
	reg.Gauge("rtopex_sweep_workers").Set(float64(workers))
	s := &sweepObs{
		reg:     reg,
		running: reg.Gauge("rtopex_sweep_workers_busy"),
		done:    reg.Counter("rtopex_sweep_units_done_total"),
		failed:  reg.Counter("rtopex_sweep_units_failed_total"),
		seconds: reg.Histogram("rtopex_sweep_unit_seconds"),
		pusher:  pusher,
	}
	s.running.Set(0)
	return s
}

func (s *sweepObs) unitStarted() {
	if s == nil {
		return
	}
	s.running.Add(1)
}

func (s *sweepObs) unitFinished(u Unit, rec *Record, fail *Failure, d time.Duration) {
	if s == nil {
		return
	}
	s.running.Add(-1)
	s.done.Inc()
	s.seconds.Observe(d.Seconds())
	if fail == nil {
		harness.PublishTable(s.reg, rec.Table)
	} else {
		s.failed.Inc()
	}
	// Per-unit pushes are best-effort: a transient failure is absorbed by
	// the next unit's push carrying strictly more state, and the sweep's
	// final push (which does gate the run) retries from the full registry.
	_ = s.pusher.Push(s.reg)
}

// finalPush flushes the registry's end-of-sweep state, marked final so the
// collector retains this source past the staleness window.
func (s *sweepObs) finalPush() error {
	if s == nil || s.pusher == nil {
		return nil
	}
	return s.pusher.PushFinal(s.reg)
}
