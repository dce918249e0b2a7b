// Package harness defines one runnable experiment per table and figure of
// the paper's evaluation, plus the ablations called out in DESIGN.md. Each
// experiment regenerates the rows/series the paper reports; EXPERIMENTS.md
// records the paper-vs-measured comparison.
package harness

import (
	"fmt"
	"sort"
	"strings"
)

// Table is the result of one experiment: a titled grid of cells plus notes
// tying it back to the paper's claims.
type Table struct {
	ID      string
	Title   string
	Columns []string
	// Kinds says what each column holds, index for index with Columns; a
	// missing entry is Plain. It is declared by the experiment, not
	// stored: records keep only the cells.
	Kinds []Kind `json:"-"`
	Rows  [][]string
	Notes []string
}

// Kind says what a column's cells hold.
type Kind uint8

const (
	// Plain is any column that is not a miss rate.
	Plain Kind = iota
	// Rate is a deadline-miss fraction in [0, 1].
	Rate
)

// kind returns the declared kind of column col.
func (t *Table) kind(col int) Kind {
	if col < len(t.Kinds) {
		return t.Kinds[col]
	}
	return Plain
}

// AddRow appends a formatted row; values are Sprintf'd with %v unless they
// are already strings.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = formatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	case v >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Options tune experiment scale. The zero value requests paper-scale runs;
// Quick shrinks sample counts for tests and smoke runs.
type Options struct {
	// Subframes per basestation for scheduler experiments (default 30000,
	// the paper's trace length).
	Subframes int
	// Samples for distribution experiments (default 1e6; the paper's model
	// fit uses 4e6).
	Samples int
	// Seed makes every experiment deterministic.
	Seed uint64
	// Quick shrinks all scales ~10× for fast runs.
	Quick bool
}

func (o Options) subframes() int {
	n := o.Subframes
	if n <= 0 {
		n = 30000
	}
	if o.Quick && n > 3000 {
		n = 3000
	}
	return n
}

func (o Options) samples() int {
	n := o.Samples
	if n <= 0 {
		n = 1_000_000
	}
	if o.Quick && n > 100_000 {
		n = 100_000
	}
	return n
}

func (o Options) seed() uint64 {
	if o.Seed == 0 {
		return 0xC0FFEE
	}
	return o.Seed
}

// ResolvedOptions is the machine-readable form of Options after all
// defaulting and Quick-mode clamping: the exact scales an experiment run
// will use. It is what sweep artifact stores key on, so its JSON encoding
// is part of the artifact schema (see internal/sweep/README.md).
type ResolvedOptions struct {
	Subframes int    `json:"subframes"`
	Samples   int    `json:"samples"`
	Seed      uint64 `json:"seed"`
	Quick     bool   `json:"quick,omitempty"`
}

// Resolve applies defaults and Quick clamping, yielding the effective
// configuration of a run with these options.
func (o Options) Resolve() ResolvedOptions {
	return ResolvedOptions{
		Subframes: o.subframes(),
		Samples:   o.samples(),
		Seed:      o.seed(),
		Quick:     o.Quick,
	}
}

// Options converts back to runnable Options. Resolve∘Options is the
// identity on resolved values, so a stored configuration replays exactly.
func (r ResolvedOptions) Options() Options {
	return Options{Subframes: r.Subframes, Samples: r.Samples, Seed: r.Seed, Quick: r.Quick}
}

// Experiment is a registered, runnable reproduction unit.
type Experiment struct {
	ID    string
	Title string
	// Measured marks experiments whose output depends on wall-clock
	// measurement of this machine (fig4 times the real Go PHY): their
	// tables are not reproducible bit-for-bit and are exempt from the
	// sweep determinism guarantee and baseline comparison.
	Measured bool
	Run      func(Options) (*Table, error)
}

var registry = map[string]Experiment{}

func register(id, title string, run func(Options) (*Table, error)) {
	registry[id] = Experiment{ID: id, Title: title, Run: run}
}

// registerMeasured registers a wall-clock-dependent experiment.
func registerMeasured(id, title string, run func(Options) (*Table, error)) {
	registry[id] = Experiment{ID: id, Title: title, Measured: true, Run: run}
}

// IDs lists all registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Spec is the machine-readable registry entry of one experiment.
type Spec struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	Measured bool   `json:"measured,omitempty"`
}

// Specs lists the registry in sorted id order.
func Specs() []Spec {
	specs := make([]Spec, 0, len(registry))
	for _, id := range IDs() {
		e := registry[id]
		specs = append(specs, Spec{ID: e.ID, Title: e.Title, Measured: e.Measured})
	}
	return specs
}

// Lookup finds an experiment by id.
func Lookup(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return e, nil
}

// Run executes one experiment by id.
func Run(id string, o Options) (*Table, error) {
	e, err := Lookup(id)
	if err != nil {
		return nil, err
	}
	return e.Run(o)
}

// CSV renders the table as RFC-4180-style CSV (header row first, notes as
// trailing comment lines), for feeding plots without parsing the aligned
// text format.
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}
