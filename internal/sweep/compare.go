package sweep

import (
	"fmt"
	"math"
	"strconv"

	"rtopex/internal/obs"
)

// CompareOptions configure the regression gate. The gate is exact: the
// simulation is deterministic, so any drift in a cell, note or obs series
// means the code changed behavior.
type CompareOptions struct {
	// IncludeMeasured also diffs wall-clock-dependent artifacts (normally
	// skipped: their values are not reproducible).
	IncludeMeasured bool
	// IgnoreNotes skips the free-text notes (which may embed derived
	// numbers) and gates on table cells only.
	IgnoreNotes bool
}

// Drift is one detected divergence between a baseline and a fresh sweep.
type Drift struct {
	Experiment string
	// Replica distinguishes drifts when a sweep ran replicas.
	Replica int
	// Where locates the divergence: "missing", "config", "shape",
	// "cell <row>/<column>", or "note <i>".
	Where    string
	Baseline string
	Fresh    string
}

func (d Drift) String() string {
	id := d.Experiment
	if d.Replica > 0 {
		id = fmt.Sprintf("%s#%d", id, d.Replica)
	}
	return fmt.Sprintf("%s: %s: baseline %q, got %q", id, d.Where, d.Baseline, d.Fresh)
}

// Compare diffs a fresh sweep against a baseline store and returns every
// drift. Records are matched by (experiment, replica); fresh experiments
// with no baseline are ignored (adding an experiment is not a regression),
// but baseline records missing from the fresh sweep are drifts — the gate
// must notice a silently skipped experiment.
func Compare(baseline, fresh []*Record, o CompareOptions) []Drift {
	type rkey struct {
		id      string
		replica int
	}
	freshBy := make(map[rkey]*Record, len(fresh))
	for _, r := range fresh {
		freshBy[rkey{r.Experiment, r.Replica}] = r
	}
	var drifts []Drift
	for _, b := range baseline {
		if b.Measured && !o.IncludeMeasured {
			continue
		}
		f, ok := freshBy[rkey{b.Experiment, b.Replica}]
		if !ok {
			drifts = append(drifts, Drift{Experiment: b.Experiment, Replica: b.Replica,
				Where: "missing", Baseline: b.Key, Fresh: "(no record)"})
			continue
		}
		drifts = append(drifts, compareRecord(b, f, o)...)
	}
	return drifts
}

func compareRecord(b, f *Record, o CompareOptions) []Drift {
	d := func(where, base, got string) Drift {
		return Drift{Experiment: b.Experiment, Replica: b.Replica, Where: where, Baseline: base, Fresh: got}
	}
	// A key mismatch means the configurations differ (seed, scale or
	// schema): cell values are incomparable, so report the config drift
	// alone.
	if b.Key != f.Key {
		return []Drift{d("config", fmt.Sprintf("%s %+v", b.Key, b.Config), fmt.Sprintf("%s %+v", f.Key, f.Config))}
	}
	bt, ft := b.Table, f.Table
	if bt == nil || ft == nil {
		if bt == ft {
			return nil
		}
		return []Drift{d("shape", fmt.Sprintf("table=%v", bt != nil), fmt.Sprintf("table=%v", ft != nil))}
	}
	if fmt.Sprint(bt.Columns) != fmt.Sprint(ft.Columns) {
		return []Drift{d("shape", fmt.Sprint(bt.Columns), fmt.Sprint(ft.Columns))}
	}
	if len(bt.Rows) != len(ft.Rows) {
		return []Drift{d("shape", fmt.Sprintf("%d rows", len(bt.Rows)), fmt.Sprintf("%d rows", len(ft.Rows)))}
	}
	var drifts []Drift
	for i := range bt.Rows {
		if len(bt.Rows[i]) != len(ft.Rows[i]) {
			drifts = append(drifts, d(fmt.Sprintf("shape row %d", i),
				fmt.Sprintf("%d cells", len(bt.Rows[i])), fmt.Sprintf("%d cells", len(ft.Rows[i]))))
			continue
		}
		for c := range bt.Rows[i] {
			col := fmt.Sprintf("col%d", c)
			if c < len(bt.Columns) {
				col = bt.Columns[c]
			}
			if !cellEqual(bt.Rows[i][c], ft.Rows[i][c]) {
				drifts = append(drifts, d(fmt.Sprintf("cell %d/%s", i, col), bt.Rows[i][c], ft.Rows[i][c]))
			}
		}
	}
	if !o.IgnoreNotes {
		if len(bt.Notes) != len(ft.Notes) {
			drifts = append(drifts, d("note count",
				fmt.Sprint(len(bt.Notes)), fmt.Sprint(len(ft.Notes))))
		} else {
			for i := range bt.Notes {
				if bt.Notes[i] != ft.Notes[i] {
					drifts = append(drifts, d(fmt.Sprintf("note %d", i), bt.Notes[i], ft.Notes[i]))
				}
			}
		}
	}
	drifts = append(drifts, compareObs(b, f)...)
	return drifts
}

// compareObs gates the embedded observability snapshots exactly: counters
// and gauges by value, histograms by count, sum, p50 and p99. Records
// without snapshots (schema 1 baselines, or only one side carrying one) are
// skipped — the gate tightens only when both sides speak the same schema.
func compareObs(b, f *Record) []Drift {
	if b.Obs == nil || f.Obs == nil {
		return nil
	}
	d := func(where, base, got string) Drift {
		return Drift{Experiment: b.Experiment, Replica: b.Replica, Where: where, Baseline: base, Fresh: got}
	}
	var drifts []Drift

	fc := make(map[string]int64, len(f.Obs.Counters))
	for _, c := range f.Obs.Counters {
		fc[obs.SeriesID(c.Name, c.Labels)] = c.Value
	}
	for _, c := range b.Obs.Counters {
		id := obs.SeriesID(c.Name, c.Labels)
		if got, ok := fc[id]; !ok || got != c.Value {
			fresh := "(no series)"
			if ok {
				fresh = fmt.Sprint(got)
			}
			drifts = append(drifts, d("obs counter "+id, fmt.Sprint(c.Value), fresh))
		}
	}

	fg := make(map[string]float64, len(f.Obs.Gauges))
	for _, g := range f.Obs.Gauges {
		fg[obs.SeriesID(g.Name, g.Labels)] = g.Value
	}
	for _, g := range b.Obs.Gauges {
		id := obs.SeriesID(g.Name, g.Labels)
		got, ok := fg[id]
		if !ok || !floatEqual(g.Value, got) {
			fresh := "(no series)"
			if ok {
				fresh = fmt.Sprint(got)
			}
			drifts = append(drifts, d("obs gauge "+id, fmt.Sprint(g.Value), fresh))
		}
	}

	fh := make(map[string]obs.HistogramValue, len(f.Obs.Histograms))
	for _, h := range f.Obs.Histograms {
		fh[obs.SeriesID(h.Name, h.Labels)] = h.Value
	}
	for _, h := range b.Obs.Histograms {
		id := obs.SeriesID(h.Name, h.Labels)
		got, ok := fh[id]
		if !ok {
			drifts = append(drifts, d("obs histogram "+id, fmt.Sprintf("count=%d", h.Value.Count), "(no series)"))
			continue
		}
		switch {
		case got.Count != h.Value.Count:
			drifts = append(drifts, d("obs histogram "+id+" count",
				fmt.Sprint(h.Value.Count), fmt.Sprint(got.Count)))
		case !floatEqual(h.Value.Sum, got.Sum):
			drifts = append(drifts, d("obs histogram "+id+" sum",
				fmt.Sprint(h.Value.Sum), fmt.Sprint(got.Sum)))
		case h.Value.Count > 0 && !floatEqual(h.Value.Quantile(0.5), got.Quantile(0.5)):
			drifts = append(drifts, d("obs histogram "+id+" p50",
				fmt.Sprint(h.Value.Quantile(0.5)), fmt.Sprint(got.Quantile(0.5))))
		case h.Value.Count > 0 && !floatEqual(h.Value.Quantile(0.99), got.Quantile(0.99)):
			drifts = append(drifts, d("obs histogram "+id+" p99",
				fmt.Sprint(h.Value.Quantile(0.99)), fmt.Sprint(got.Quantile(0.99))))
		}
	}
	return drifts
}

// cellEqual compares one cell: as numbers when both sides parse as floats
// (so "0.5" equals "0.50"), as text otherwise.
func cellEqual(base, got string) bool {
	if base == got {
		return true
	}
	bv, berr := strconv.ParseFloat(base, 64)
	gv, gerr := strconv.ParseFloat(got, 64)
	if berr != nil || gerr != nil {
		return false
	}
	return floatEqual(bv, gv)
}

// floatEqual is exact equality under which NaN equals NaN.
func floatEqual(base, got float64) bool {
	return base == got || math.IsNaN(base) && math.IsNaN(got)
}
