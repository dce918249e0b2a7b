package harness

import (
	"math"
	"strconv"
	"strings"

	"rtopex/internal/obs"
)

// PublishTable exposes a finished experiment table on a live registry:
// per-column means as gauges, and every Rate column additionally as
// rtopex_experiment_miss_rate (the series a sweep-progress dashboard
// scrapes). Non-numeric cells are skipped. A nil registry is a
// no-op.
func PublishTable(reg *obs.Registry, tb *Table) {
	if reg == nil || tb == nil {
		return
	}
	reg.SetHelp("rtopex_experiment_rows", "Rows produced by the experiment.")
	reg.Gauge("rtopex_experiment_rows", obs.L("experiment", tb.ID)).Set(float64(len(tb.Rows)))
	// A counter (not a gauge) so the fleet-wide total stays exact when many
	// sweep workers' registries merge on a collector.
	reg.SetHelp("rtopex_experiment_done_total", "Completed runs of the experiment (sums across sweep workers).")
	reg.Counter("rtopex_experiment_done_total", obs.L("experiment", tb.ID)).Inc()
	reg.SetHelp("rtopex_experiment_column_mean", "Mean of the experiment column's numeric cells.")
	reg.SetHelp("rtopex_experiment_miss_rate", "Mean deadline-miss rate of the experiment's miss column.")
	for col, stats := range columnStats(tb) {
		name := tb.Columns[col]
		ls := []obs.Label{obs.L("experiment", tb.ID), obs.L("column", name)}
		mean := stats.sum / float64(stats.n)
		reg.Gauge("rtopex_experiment_column_mean", ls...).Set(mean)
		if tb.kind(col) == Rate {
			reg.Gauge("rtopex_experiment_miss_rate", ls...).Set(mean)
		}
	}
}

// TableSnapshot converts a finished table into a standalone obs snapshot:
// a row counter plus, per numeric column, a value histogram and mean gauge,
// and per Rate column a miss-rate gauge.
// It is derived from the table alone — no clocks, no environment — so for a
// given table the snapshot is deterministic, which lets sweep records embed
// it without breaking the byte-identical parallel-equals-serial guarantee.
func TableSnapshot(tb *Table) *obs.Snapshot {
	reg := obs.NewRegistry()
	reg.Counter("rtopex_table_rows", obs.L("experiment", tb.ID)).Add(int64(len(tb.Rows)))
	for col, stats := range columnStats(tb) {
		name := tb.Columns[col]
		ls := []obs.Label{obs.L("experiment", tb.ID), obs.L("column", name)}
		h := reg.Histogram("rtopex_table_value", ls...)
		for _, v := range stats.values {
			h.Observe(v)
		}
		reg.Gauge("rtopex_table_mean", ls...).Set(stats.sum / float64(stats.n))
		if tb.kind(col) == Rate {
			reg.Gauge("rtopex_table_miss_rate", ls...).Set(stats.sum / float64(stats.n))
		}
	}
	return reg.Snapshot()
}

type colStats struct {
	n      int
	sum    float64
	values []float64
}

// columnStats extracts the numeric cells of each column (column index →
// stats); columns with no numeric cells are absent.
func columnStats(tb *Table) map[int]colStats {
	out := map[int]colStats{}
	for _, row := range tb.Rows {
		for col, cell := range row {
			if col >= len(tb.Columns) {
				break
			}
			v, err := strconv.ParseFloat(strings.TrimSpace(cell), 64)
			if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
				// Non-numeric and non-finite cells (a zero-miss run's log
				// column renders -Inf) are skipped: snapshots embed in JSON,
				// which cannot carry non-finite numbers.
				continue
			}
			s := out[col]
			s.n++
			s.sum += v
			s.values = append(s.values, v)
			out[col] = s
		}
	}
	return out
}
