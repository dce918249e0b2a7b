package sched

import "rtopex/internal/obs"

// PublishMetrics writes one run's Metrics into an observability registry,
// labeled by scheduler name: job/miss counters, the gap/overrun/processing
// distributions as mergeable histograms, and the migration accounting. A
// nil registry or nil metrics is a no-op, so call sites can pass an optional
// registry straight through.
func PublishMetrics(reg *obs.Registry, m *Metrics) {
	if reg == nil || m == nil {
		return
	}
	l := obs.L("sched", m.Scheduler)

	reg.SetHelp("rtopex_jobs_total", "Uplink subframes completed or dropped.")
	reg.SetHelp("rtopex_misses_total", "Uplink deadline misses (dropped + late).")
	reg.SetHelp("rtopex_miss_rate", "Uplink deadline-miss fraction.")
	reg.Counter("rtopex_jobs_total", l).Add(int64(m.Jobs()))
	reg.Counter("rtopex_misses_total", l).Add(int64(m.Misses()))
	reg.Gauge("rtopex_miss_rate", l).Set(m.MissRate())
	reg.Counter("rtopex_dropped_total", l).Add(int64(m.totalDropped()))
	reg.Counter("rtopex_late_total", l).Add(int64(m.totalLate()))
	reg.Counter("rtopex_decode_fail_total", l).Add(int64(m.totalDecodeFail()))
	if m.TxJobs > 0 {
		reg.Counter("rtopex_tx_jobs_total", l).Add(int64(m.TxJobs))
		reg.Counter("rtopex_tx_misses_total", l).Add(int64(m.TxMisses))
	}

	reg.SetHelp("rtopex_gap_us", "Unused budget (deadline − finish) per completed subframe.")
	reg.SetHelp("rtopex_overrun_us", "Overshoot (finish − deadline) per late subframe.")
	reg.SetHelp("rtopex_proc_us", "Realized processing duration per completed subframe.")
	reg.Histogram("rtopex_gap_us", l).ObserveAll(m.Gaps)
	reg.Histogram("rtopex_overrun_us", l).ObserveAll(m.Overruns)
	reg.Histogram("rtopex_proc_us", l).ObserveAll(m.ProcTimes)

	if m.MigrationBatches > 0 || m.FFTSubtasksMigrated > 0 || m.DecodeSubtasksMigrated > 0 {
		reg.SetHelp("rtopex_migration_batches_total", "Migration batches planned onto idle hosts.")
		reg.Counter("rtopex_migration_batches_total", l).Add(int64(m.MigrationBatches))
		reg.Counter("rtopex_migration_preemptions_total", l).Add(int64(m.Preemptions))
		reg.Counter("rtopex_migration_recoveries_total", l).Add(int64(m.Recoveries))
		reg.Counter("rtopex_fft_subtasks_migrated_total", l).Add(int64(m.FFTSubtasksMigrated))
		reg.Counter("rtopex_decode_subtasks_migrated_total", l).Add(int64(m.DecodeSubtasksMigrated))
		reg.Gauge("rtopex_fft_migrated_fraction", l).Set(m.MigratedFFTFraction())
		reg.Gauge("rtopex_decode_migrated_fraction", l).Set(m.MigratedDecodeFraction())
	}
}
