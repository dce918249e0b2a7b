package sweep

import (
	"strings"
	"testing"

	"rtopex/internal/harness"
	"rtopex/internal/obs"
)

// TestSweepPublishesProgress checks the live-registry series a mid-sweep
// scrape sees: unit totals, done/failed counters, worker occupancy, and the
// per-experiment table gauges.
func TestSweepPublishesProgress(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := Config{
		IDs:     []string{"fig15", "fig16"},
		Workers: 2,
		Obs:     reg,
		Options: harness.Options{Quick: true, Seed: 5},
		runFn: func(id string, o harness.Options) (*harness.Table, error) {
			tb := &harness.Table{ID: id, Title: id, Columns: []string{"x", "miss_rate"},
				Kinds: []harness.Kind{harness.Plain, harness.Rate}}
			tb.AddRow("1", 0.25)
			return tb, nil
		},
	}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("rtopex_sweep_units_total").Value(); got != 2 {
		t.Fatalf("units_total = %d, want 2", got)
	}
	if got := reg.Counter("rtopex_sweep_units_done_total").Value(); got != 2 {
		t.Fatalf("units_done = %d, want 2", got)
	}
	if got := reg.Counter("rtopex_sweep_units_failed_total").Value(); got != 0 {
		t.Fatalf("units_failed = %d, want 0", got)
	}
	if got := reg.Gauge("rtopex_sweep_workers_busy").Value(); got != 0 {
		t.Fatalf("workers_busy after completion = %v, want 0", got)
	}
	if got := reg.Histogram("rtopex_sweep_unit_seconds").Count(); got != 2 {
		t.Fatalf("unit_seconds count = %d, want 2", got)
	}
	miss := reg.Gauge("rtopex_experiment_miss_rate",
		obs.L("experiment", "fig15"), obs.L("column", "miss_rate"))
	if !miss.IsSet() || miss.Value() != 0.25 {
		t.Fatalf("experiment miss gauge = %v (set=%v), want 0.25", miss.Value(), miss.IsSet())
	}
}

// TestRecordObsDeterministic pins the embedded snapshot being a pure
// function of the table: two identical units yield byte-identical record
// lines including the obs section.
func TestRecordObsDeterministic(t *testing.T) {
	mk := func() *Record {
		cfg := Config{
			IDs:     []string{"fig15"},
			Workers: 1,
			Options: harness.Options{Quick: true, Seed: 9},
			runFn: func(id string, o harness.Options) (*harness.Table, error) {
				tb := &harness.Table{ID: id, Title: id, Columns: []string{"x", "partitioned", "rt-opex"}}
				tb.AddRow("150", 0.31, 0.0125)
				tb.AddRow("300", 0.35, 0.02)
				return tb, nil
			},
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Records[0]
	}
	a, b := mk(), mk()
	if a.Obs == nil {
		t.Fatal("record missing obs snapshot")
	}
	la, err := a.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	lb, err := b.MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	if string(la) != string(lb) {
		t.Fatalf("identical units produced different record bytes:\n%s\nvs\n%s", la, lb)
	}
	if !strings.Contains(string(la), `"obs"`) {
		t.Fatalf("record line carries no obs section: %s", la)
	}
}

func TestCompareObs(t *testing.T) {
	mk := func(miss float64) *Record {
		r := fakeRecord("fig15", 0, "1.25", "x")
		tb := &harness.Table{ID: "fig15", Columns: []string{"x", "miss_rate"}}
		tb.AddRow("1", miss)
		r.Obs = harness.TableSnapshot(tb)
		return r
	}
	base := []*Record{mk(0.010)}

	// Identical snapshots: clean.
	if d := Compare(base, []*Record{mk(0.010)}, CompareOptions{}); len(d) != 0 {
		t.Fatalf("identical obs drifted: %v", d)
	}

	// Gauge drift caught.
	fresh := []*Record{mk(0.011)}
	d := Compare(base, fresh, CompareOptions{})
	found := false
	for _, dr := range d {
		if strings.Contains(dr.Where, "obs") {
			found = true
		}
	}
	if !found {
		t.Fatalf("obs drift not caught: %v", d)
	}

	// One side missing a snapshot (schema-1 baseline): no obs gating.
	old := []*Record{fakeRecord("fig15", 0, "1.25", "x")}
	old[0].Obs = nil
	if d := Compare(old, fresh, CompareOptions{}); len(d) != 0 {
		t.Fatalf("schema-1 baseline should skip obs gating: %v", d)
	}
}
