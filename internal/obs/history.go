package obs

import (
	"errors"
	"flag"
	"time"
)

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

// Start runs the history plane the flags describe over snapshot: when -slo
// declared objectives, a TSDB, an SLO engine cross-linking dossiers from
// dossiers (may be nil), and a scraper feeding one into the other every
// -history-step. The engine is the store's only reader, so without
// objectives nothing runs and the engine is nil. stop halts the scraper
// (a no-op when nothing runs). -slo with -history-step 0 is an error.
func (c *HistoryConfig) Start(snapshot func() *Snapshot, dossiers DossierSource) (slo *SLOEngine, stop func(), err error) {
	objectives := c.Objectives()
	if len(objectives) == 0 {
		return nil, func() {}, nil
	}
	if c.TSDB.Step <= 0 {
		return nil, nil, errors.New("-slo requires the history store (-history-step > 0)")
	}
	db := NewTSDB(c.TSDB)
	slo = NewSLOEngine(db, objectives...)
	if dossiers != nil {
		slo.SetDossierSource(dossiers)
	}
	return slo, StartScraper(ScraperConfig{DB: db, Snapshot: snapshot, SLO: slo}).Stop, nil
}
