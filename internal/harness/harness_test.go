package harness

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"rtopex/internal/obs"
)

var quick = Options{Quick: true, Subframes: 2000, Samples: 50_000}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "table1", "table2", "fig3a", "fig3b", "fig3c", "fig3d",
		"fig4", "fig6", "fig7", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"ablation-alg1", "ablation-delta", "ablation-granularity", "ablation-cache",
		"ablation-dispatch", "ablation-task-migration",
		"ext-parallel", "ext-hetero", "ext-transport", "ext-pooling",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
	if _, err := Run("nope", quick); err == nil {
		t.Fatal("unknown run accepted")
	}
}

// missColumns is every column an experiment publishes as a miss rate: the
// columns the former name heuristic found, plus ablation-alg1's,
// ablation-granularity's and ablation-cache's, which it missed. An
// experiment absent here publishes none.
var missColumns = map[string][]string{
	"ablation-alg1":           {"default", "greedy(no R2/R3)", "no-wait recovery", "per-subtask δ"},
	"ablation-cache":          {"with_cache", "without_cache"},
	"ablation-delta":          {"miss_rate"},
	"ablation-dispatch":       {"miss_rate"},
	"ablation-granularity":    {"both", "decode-only", "fft-only", "none(=partitioned)"},
	"ablation-task-migration": {"partitioned", "rt-opex"},
	"ext-hetero":              {"miss_total", "miss_bs1(macro)", "miss_bs3(small)"},
	"ext-parallel":            {"rt-opex(8c)", "static-2(8c)", "static-4(16c)", "partitioned(8c)"},
	"ext-transport":           {"partitioned", "rt-opex"},
	"fig15":                   {"partitioned", "global-8", "global-16", "rt-opex"},
	"fig17":                   {"partitioned", "global-8", "rt-opex"},
	"fig19":                   {"miss_rate"},
}

// gaugeColumns lists, in sorted order, the column labels of the snapshot's
// gauges named name.
func gaugeColumns(s *obs.Snapshot, name string) []string {
	var cols []string
	for _, g := range s.Gauges {
		if g.Name != name {
			continue
		}
		for _, l := range g.Labels {
			if l.Key == "column" {
				cols = append(cols, l.Value)
			}
		}
	}
	sort.Strings(cols)
	return cols
}

// TestAllExperimentsRunQuick runs every registered experiment's quick
// table and checks its column kinds: declared for every column or for
// none, at least one Rate column when the title says "miss rate", and the
// Rate columns are exactly missColumns, both on a live registry and in the
// table's snapshot.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tb, err := Run(id, quick)
			if err != nil {
				t.Fatal(err)
			}
			if len(tb.Rows) == 0 {
				t.Fatal("no rows produced")
			}
			if len(tb.Columns) == 0 {
				t.Fatal("no columns")
			}
			for _, row := range tb.Rows {
				if len(row) != len(tb.Columns) {
					t.Fatalf("ragged row %v", row)
				}
			}
			if !strings.Contains(tb.String(), tb.ID) {
				t.Fatal("rendering missing id")
			}
			if tb.Kinds != nil && len(tb.Kinds) != len(tb.Columns) {
				t.Fatalf("%d kinds for %d columns", len(tb.Kinds), len(tb.Columns))
			}
			rates := 0
			for i := range tb.Columns {
				if tb.kind(i) == Rate {
					rates++
				}
			}
			if strings.Contains(strings.ToLower(tb.Title), "miss rate") && rates == 0 {
				t.Errorf("title %q says miss rate, but no column is a Rate", tb.Title)
			}
			want := append([]string(nil), missColumns[id]...)
			sort.Strings(want)
			reg := obs.NewRegistry()
			PublishTable(reg, tb)
			if got := gaugeColumns(reg.Snapshot(), "rtopex_experiment_miss_rate"); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("published miss-rate columns %q, want %q", got, want)
			}
			if got := gaugeColumns(TableSnapshot(tb), "rtopex_table_miss_rate"); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("snapshot miss-rate columns %q, want %q", got, want)
			}
		})
	}
}

// TestTableWithoutKindsPublishes checks a table that declares no kinds:
// it publishes and snapshots its column means and no miss rate.
func TestTableWithoutKindsPublishes(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"miss_rate"}}
	tb.AddRow(0.5)
	reg := obs.NewRegistry()
	PublishTable(reg, tb)
	if got := gaugeColumns(reg.Snapshot(), "rtopex_experiment_column_mean"); fmt.Sprint(got) != "[miss_rate]" {
		t.Errorf("column means %q", got)
	}
	for _, s := range []*obs.Snapshot{reg.Snapshot(), TableSnapshot(tb)} {
		for _, name := range []string{"rtopex_experiment_miss_rate", "rtopex_table_miss_rate"} {
			if got := gaugeColumns(s, name); got != nil {
				t.Errorf("%s published for undeclared columns %q", name, got)
			}
		}
	}
}

func parseCell(t *testing.T, tb *Table, row int, col string) float64 {
	t.Helper()
	ci := -1
	for i, c := range tb.Columns {
		if c == col {
			ci = i
		}
	}
	if ci < 0 {
		t.Fatalf("no column %q in %v", col, tb.Columns)
	}
	v, err := strconv.ParseFloat(tb.Rows[row][ci], 64)
	if err != nil {
		t.Fatalf("cell %d/%s = %q: %v", row, col, tb.Rows[row][ci], err)
	}
	return v
}

func TestFig15ReproducesHeadlineClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb, err := Run("fig15", Options{Subframes: 10000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Rows {
		part := parseCell(t, tb, i, "partitioned")
		rt := parseCell(t, tb, i, "rt-opex")
		g8 := parseCell(t, tb, i, "global-8")
		rtt := parseCell(t, tb, i, "rtt2_us")
		// RT-OPEX must be at least ~8× better wherever partitioned misses.
		if part > 1e-3 && rt > part/8 {
			t.Errorf("rtt2=%v: rt-opex %v not ≥8× below partitioned %v", rtt, rt, part)
		}
		// Global must not beat partitioned meaningfully.
		if g8 < part*0.7 {
			t.Errorf("rtt2=%v: global-8 %v well below partitioned %v", rtt, g8, part)
		}
		// RT-OPEX virtually zero below 500 µs.
		if rtt < 500 && rt > 1e-3 {
			t.Errorf("rtt2=%v: rt-opex %v not ~zero", rtt, rt)
		}
	}
}

// TestFig17SupportedLoadGain checks fig17's MCS-27 point: at peak load
// partitioned is over the 1e-2 threshold and RT-OPEX well below it. It does
// not check the supported-load claim, which depends on where each curve
// first crosses 1e-2; TestSupportedLoadStopsAtFirstCrossing pins that rule.
func TestFig17SupportedLoadGain(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb, err := Run("fig17", Options{Subframes: 8000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	last := len(tb.Rows) - 1
	part := parseCell(t, tb, last, "partitioned")
	rt := parseCell(t, tb, last, "rt-opex")
	if part < 1e-2 {
		t.Errorf("partitioned at MCS 27 misses only %v, want > 1e-2", part)
	}
	if rt > part/2 {
		t.Errorf("rt-opex %v not well below partitioned %v at peak load", rt, part)
	}
	if rt > 1e-2 {
		t.Errorf("rt-opex %v above the 1e-2 threshold at MCS 27 (31.7 Mbps)", rt)
	}
}

// TestSupportedLoadStopsAtFirstCrossing feeds fig17's note the full store's
// non-monotone curves: RT-OPEX crosses 1e-2 at 27.4 Mbps and dips back
// under it at 31.7 Mbps. Its supported load is the load before the first
// crossing, not the last load under the threshold.
func TestSupportedLoadStopsAtFirstCrossing(t *testing.T) {
	loads := []float64{21.4, 23.7, 27.4, 28.3, 30.6, 31.7}
	part := []float64{0.0034, 0.00386, 0.023, 0.023, 0.023, 0.023}
	rt := []float64{0, 0.000167, 0.011, 0.011, 0.011, 0.00774}
	note := supportedLoadNote(loads, part, rt)
	for _, want := range []string{
		"partitioned 23.7 Mbps, RT-OPEX 23.7 Mbps (+0%)",
		"partitioned crosses it between 23.7 and 27.4 Mbps",
		"RT-OPEX crosses it between 23.7 and 27.4 Mbps",
	} {
		if !strings.Contains(note, want) {
			t.Errorf("note lacks %q:\n%s", want, note)
		}
	}
	if s, c := supportedLoad(loads, []float64{0, 0, 0, 0, 0, 0.01}); s != 31.7 || c != 0 {
		t.Errorf("curve at or under 1e-2 everywhere: supported %v, crossing %v; want 31.7, 0", s, c)
	}
	if s, c := supportedLoad(loads, []float64{0.02, 0, 0, 0, 0, 0}); s != 0 || c != 21.4 {
		t.Errorf("curve over 1e-2 at the first load: supported %v, crossing %v; want 0, 21.4", s, c)
	}
}

func TestFig19Saturation(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb, err := Run("fig19", Options{Subframes: 8000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Find the 8- and 16-core rows.
	var miss8, miss16 float64
	for i := range tb.Rows {
		switch tb.Rows[i][0] {
		case "8":
			miss8 = parseCell(t, tb, i, "miss_rate")
		case "16":
			miss16 = parseCell(t, tb, i, "miss_rate")
		}
	}
	if miss16 < miss8*0.7 {
		t.Errorf("global-16 (%v) substantially better than global-8 (%v)", miss16, miss8)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a", "bb"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("s", 0.0001)
	tb.Notes = append(tb.Notes, "n1")
	out := tb.String()
	for _, want := range []string{"== x: T ==", "a", "bb", "note: n1", "0.0001"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.subframes() != 30000 || o.samples() != 1_000_000 || o.seed() == 0 {
		t.Fatal("defaults wrong")
	}
	q := Options{Quick: true}
	if q.subframes() != 3000 || q.samples() != 100_000 {
		t.Fatal("quick scaling wrong")
	}
	small := Options{Subframes: 10, Samples: 5}
	if small.subframes() != 10 || small.samples() != 5 {
		t.Fatal("explicit small values not honored")
	}
}

func TestTableCSV(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"a", "b,c"}}
	tb.AddRow("v\"1", 2)
	tb.Notes = append(tb.Notes, "note here")
	csv := tb.CSV()
	for _, want := range []string{"a,\"b,c\"\n", "\"v\"\"1\",2\n", "# note here\n"} {
		if !strings.Contains(csv, want) {
			t.Errorf("CSV missing %q:\n%s", want, csv)
		}
	}
}

func TestExtPoolingSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb, err := Run("ext-pooling", Options{Subframes: 5000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Rows {
		savings := parseCell(t, tb, i, "savings")
		if savings <= 0 || savings >= 1 {
			t.Errorf("row %d: implausible pooling savings %v", i, savings)
		}
	}
	// Savings grow with the multiplexed population.
	first := parseCell(t, tb, 0, "savings")
	last := parseCell(t, tb, len(tb.Rows)-1, "savings")
	if last <= first {
		t.Errorf("pooling savings did not grow: %v -> %v", first, last)
	}
}

// TestAblationTaskMigrationRTOPEXWins checks the claim the table makes:
// subtask migration misses fewer deadlines than the partitioned schedule
// both at the paper's provisioning (row 0) and under-provisioned (row 1).
func TestAblationTaskMigrationRTOPEXWins(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb, err := Run("ablation-task-migration", Options{Subframes: 6000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("%d provisioning rows, want 2", len(tb.Rows))
	}
	for i, row := range tb.Rows {
		p := parseCell(t, tb, i, "partitioned")
		r := parseCell(t, tb, i, "rt-opex")
		if r >= p {
			t.Errorf("%s: RT-OPEX %v not below partitioned %v", row[0], r, p)
		}
	}
}
