package obs

import (
	"flag"
	"fmt"
	"io"
	"sync"
	"time"
)

// FleetHistory gives a Collector a time dimension: every tick scrapes the
// merged fleet snapshot into one TSDB and each live source's envelope into
// its own, so a sweep fleet gets a single merged timeline *and* per-source
// timelines behind the same /api surface (?source=<id> selects one; the
// default is the merge). The SLO engine evaluates over the merged
// timeline only — objectives are fleet-level contracts, and per-source
// burn attribution falls out of the per-source history.
type FleetHistory struct {
	col    *Collector
	merged *TSDB
	slo    *SLOEngine
	now    func() time.Time

	mu        sync.Mutex
	perSource map[string]*TSDB

	done     chan struct{}
	stopOnce sync.Once
}

// FleetHistoryConfig wires a FleetHistory.
type FleetHistoryConfig struct {
	// TSDB bounds every timeline (merged and per-source alike).
	TSDB TSDBConfig
	// Objectives, when non-empty, attach an SLO engine to the merged
	// timeline.
	Objectives []Objective
	// Dossiers, when non-nil, is the alert cross-link source (typically
	// the daemon's DossierStore).
	Dossiers DossierSource
	// Now substitutes the clock (tests); nil means time.Now.
	Now func() time.Time
}

// NewFleetHistory builds the history plane over col without starting the
// scrape loop (deterministic use: call Tick yourself).
func NewFleetHistory(col *Collector, cfg FleetHistoryConfig) *FleetHistory {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	f := &FleetHistory{
		col:       col,
		merged:    NewTSDB(cfg.TSDB),
		now:       cfg.Now,
		perSource: map[string]*TSDB{},
		done:      make(chan struct{}),
	}
	if len(cfg.Objectives) > 0 {
		f.slo = NewSLOEngine(f.merged, cfg.Objectives...)
		if cfg.Dossiers != nil {
			f.slo.SetDossierSource(cfg.Dossiers)
		}
	}
	return f
}

// Tick performs one scrape-and-evaluate step: merged snapshot into the
// merged TSDB, each live source's envelope into its timeline, dropped
// timelines for sources the collector no longer tracks, then one SLO
// evaluation.
func (f *FleetHistory) Tick() {
	now := f.now()
	f.merged.Observe(now, f.col.Merged())
	live := map[string]bool{}
	for _, s := range f.col.Sources() {
		id := s.Source.ID
		live[id] = true
		snap := f.col.sourceSnapshot(id)
		if snap == nil {
			continue
		}
		f.mu.Lock()
		db, ok := f.perSource[id]
		if !ok {
			db = NewTSDB(f.mergedCfg())
			f.perSource[id] = db
		}
		f.mu.Unlock()
		db.Observe(now, snap)
	}
	// A source evicted from the collector loses its timeline too: the
	// per-source map stays bounded by the collector's own source bound.
	f.mu.Lock()
	for id := range f.perSource {
		if !live[id] {
			delete(f.perSource, id)
		}
	}
	f.mu.Unlock()
	if f.slo != nil {
		f.slo.Evaluate(now)
	}
}

func (f *FleetHistory) mergedCfg() TSDBConfig { return f.merged.cfg }

// Resolve implements HistoryResolver: "" (or "fleet") selects the merged
// timeline with the SLO engine attached; a source ID selects that source's
// bare timeline.
func (f *FleetHistory) Resolve(source string) (HistoryView, bool) {
	if source == "" || source == "fleet" {
		return HistoryView{DB: f.merged, SLO: f.slo}, true
	}
	f.mu.Lock()
	db, ok := f.perSource[source]
	f.mu.Unlock()
	if !ok {
		return HistoryView{}, false
	}
	return HistoryView{DB: db}, true
}

// Start launches the scrape loop at the TSDB step. Call Stop to halt it.
func (f *FleetHistory) Start() {
	f.Tick()
	go func() {
		t := time.NewTicker(f.merged.Step())
		defer t.Stop()
		for {
			select {
			case <-f.done:
				return
			case <-t.C:
				f.Tick()
			}
		}
	}()
}

// Stop halts a started scrape loop (safe to call repeatedly).
func (f *FleetHistory) Stop() {
	f.stopOnce.Do(func() { close(f.done) })
}

// AttachHistory links the history plane into the collector's text
// dashboard: WriteDashboard gains a sparkline section over the merged
// timeline plus the SLO/alert summary.
func (c *Collector) AttachHistory(f *FleetHistory) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.history = f
}

// writeHistory renders the dashboard's history section: sparklines of the
// fleet's key merged series over the recent window, then objective status
// and alert states.
func (f *FleetHistory) writeHistory(w io.Writer) {
	const width = 40
	window := 10 * time.Minute
	if r := f.merged.cfg.Retention; r < window {
		window = r
	}
	type line struct {
		name   string
		points []Point
		format string
	}
	var lines []line
	if pts := f.merged.RatioPoints(
		"rtopex_live_missed_total", "rtopex_live_subframes_total", window); len(pts) > 0 {
		lines = append(lines, line{"miss rate", pts, "%.4g"})
	}
	for _, id := range []string{
		"rtopex_live_subframes_total",
		"rtopex_sweep_units_done_total",
		"rtopex_fleet_units_done_total",
	} {
		if rate, ok := f.merged.Rate(id, window); ok {
			lines = append(lines, line{id + "/s", ratePoints(f.merged, id, window), fmt.Sprintf("%%.3g (now %.3g/s)", rate)})
		}
	}
	for _, id := range []string{"rtopex_sweep_workers_busy", "rtopex_go_goroutines"} {
		if pts := f.merged.Points(id, window); len(pts) > 0 {
			lines = append(lines, line{id, pts, "%.3g"})
		}
	}
	if len(lines) > 0 {
		fmt.Fprintf(w, "\nhistory (last %s, step %s):\n", window, f.merged.Step())
		for _, l := range lines {
			last := 0.0
			if n := len(l.points); n > 0 {
				last = l.points[n-1].V
			}
			fmt.Fprintf(w, "  %-28s %s "+l.format+"\n", l.name, Sparkline(l.points, width), last)
		}
	}
	if f.slo == nil {
		return
	}
	fmt.Fprintf(w, "\nslo:\n")
	for _, st := range f.slo.Status() {
		fmt.Fprintf(w, "  %-20s target %.4g over %s  ratio %.4g  burn fast %.2f slow %.2f  budget %.0f%%  [%s]\n",
			st.Objective.Name, st.Objective.Target, time.Duration(st.WindowMS)*time.Millisecond,
			st.ErrorRatio, st.FastBurn, st.SlowBurn, st.BudgetUsed*100, st.State)
	}
	for _, a := range f.slo.Alerts() {
		if a.State == AlertInactive {
			continue
		}
		fmt.Fprintf(w, "  alert %-14s %s since %s, %d dossier(s)\n",
			a.Objective, a.State, time.UnixMilli(a.SinceMS).UTC().Format(time.TimeOnly), a.DossierCount)
	}
}

// ratePoints renders a counter's per-step rate as points (sparkline form
// of Rate).
func ratePoints(db *TSDB, id string, window time.Duration) []Point {
	raw := db.Points(id, window)
	if len(raw) < 2 {
		return nil
	}
	out := make([]Point, 0, len(raw)-1)
	for i := 1; i < len(raw); i++ {
		dt := float64(raw[i].T-raw[i-1].T) / 1e3
		if dt <= 0 {
			continue
		}
		dv := raw[i].V - raw[i-1].V
		if dv < 0 {
			dv = raw[i].V
		}
		out = append(out, Point{T: raw[i].T, V: dv / dt})
	}
	return out
}

// HistoryConfig carries the shared -history-step/-history-retention flag
// values and, after SLOFlags, the -slo objectives and their overrides.
type HistoryConfig struct {
	// TSDB holds the parsed step and retention; a Step of 0 means the
	// operator disabled the time-series store.
	TSDB TSDBConfig

	fs                  *flag.FlagSet
	objectives          []Objective
	fast, slow, pending time.Duration
}

// HistoryFlags registers -history-step and -history-retention on fs (the
// global flag set when nil) with the calling binary's defaults and returns
// the config the flags fill at Parse time.
func HistoryFlags(fs *flag.FlagSet, step, retention time.Duration) *HistoryConfig {
	if fs == nil {
		fs = flag.CommandLine
	}
	c := &HistoryConfig{fs: fs}
	fs.DurationVar(&c.TSDB.Step, "history-step", step, "history scrape interval (0 disables the time-series store)")
	fs.DurationVar(&c.TSDB.Retention, "history-retention", retention, "history retention per series")
	return c
}

// SLOFlags additionally registers the repeatable -slo objective flag and
// its -slo-fast, -slo-slow and -slo-pending overrides on the same flag set.
func (c *HistoryConfig) SLOFlags() {
	fs := c.fs
	fs.Func("slo", "declarative objective, e.g. 'miss_rate: errs / total <= 0.1% over 5m' (repeatable)", func(spec string) error {
		o, err := ParseObjective(spec)
		if err != nil {
			return err
		}
		c.objectives = append(c.objectives, o)
		return nil
	})
	fs.DurationVar(&c.fast, "slo-fast", 0, "override the fast burn window for every -slo objective (default window/12)")
	fs.DurationVar(&c.slow, "slo-slow", 0, "override the slow burn window for every -slo objective (default the SLO window)")
	fs.DurationVar(&c.pending, "slo-pending", 0, "how long burn must persist before an alert fires")
}

// Objectives returns the parsed -slo objectives with the window and pending
// overrides applied.
func (c *HistoryConfig) Objectives() []Objective {
	for i := range c.objectives {
		if c.fast > 0 {
			c.objectives[i].FastWindow = c.fast
		}
		if c.slow > 0 {
			c.objectives[i].SlowWindow = c.slow
		}
		c.objectives[i].Pending = c.pending
	}
	return c.objectives
}
