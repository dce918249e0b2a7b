package harness

import (
	"strconv"
	"strings"
	"testing"
)

var quick = Options{Quick: true, Subframes: 2000, Samples: 50_000}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "table1", "table2", "fig3a", "fig3b", "fig3c", "fig3d",
		"fig4", "fig6", "fig7", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19",
		"ablation-alg1", "ablation-delta", "ablation-granularity", "ablation-cache",
		"ablation-dispatch", "ablation-task-migration",
		"ext-parallel", "ext-hetero", "ext-transport", "ext-pooling", "ext-duplex",
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

// TestAllExperimentsRunQuick runs every registered experiment's quick
// table, then checks the miss-column naming against the columns produced:
// every hint names at least one column (a scheduler column may carry a
// "(<n>c)" core count), and each of ext-parallel's scheduler columns is a
// miss column, so its miss rates reach rtopex_experiment_miss_rate.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow in -short mode")
	}
	var columns []string
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tb, err := Run(id, quick)
			if err != nil {
				t.Fatal(err)
			}
			columns = append(columns, tb.Columns...)
			if id == "ext-parallel" {
				for _, c := range tb.Columns[1:] {
					if !isMissColumn(c) {
						t.Errorf("column %q is not a miss column", c)
					}
				}
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
		})
	}
	for hint := range missColumnHints {
		named := false
		for _, c := range columns {
			named = named || c == hint || strings.HasPrefix(c, hint+"(")
		}
		if !named {
			t.Errorf("miss-column hint %q names no column of any experiment", hint)
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
	// Partitioned must be over the paper's 1e-2 threshold at peak load
	// while RT-OPEX stays well below it (the +15% supported-load claim).
	if part < 1e-2 {
		t.Errorf("partitioned at MCS 27 misses only %v, want > 1e-2", part)
	}
	if rt > part/2 {
		t.Errorf("rt-opex %v not well below partitioned %v at peak load", rt, part)
	}
	if rt > 1e-2 {
		t.Errorf("rt-opex %v above the 1e-2 threshold at 31.7 Mbps; paper supports this load", rt)
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

func TestExtDuplexOrderingPreserved(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	tb, err := Run("ext-duplex", Options{Subframes: 6000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tb.Rows {
		part := parseCell(t, tb, i, "partitioned")
		rt := parseCell(t, tb, i, "rt-opex")
		if rt >= part {
			t.Errorf("row %d: RT-OPEX (%v) not below partitioned (%v)", i, rt, part)
		}
	}
	// Duplex load must not reduce RT-OPEX's migration supply to zero.
	mig := parseCell(t, tb, 1, "rt-opex_decode_migrated")
	if mig <= 0.05 {
		t.Errorf("duplex decode migration collapsed to %v", mig)
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
