package obs

import (
	"fmt"
	"sync"
	"time"
)

// The history plane: a fixed-memory, in-process store sampling the
// counters of registry snapshots into per-series ring buffers, so the SLO
// engine (slo.go) can ask the one question the snapshot-only plane cannot
// answer — "how much did this counter grow over the last N seconds". That
// windowed increase is the engine's only input, so counters are the only
// series the store keeps.
//
// Design constraints, in order:
//
//   - Fixed memory. Ring capacity is Retention/Step per series, decided at
//     construction; a scrape never grows a ring. Series count follows
//     registry cardinality, which the emitting code already bounds.
//   - Deterministic. Observe takes the sample time explicitly and Increase
//     is anchored at the newest sample, not the wall clock. Replaying the
//     same (time, snapshot) sequence reproduces every answer bit-for-bit —
//     the property the SLO engine's seeded alert-transition tests rely on.
//   - Exact. A windowed increase is the difference of two stored samples,
//     so it inherits the registry's merge-exactness (property-tested in
//     tsdb_test.go).

// TSDBConfig bounds a TSDB. The zero value is usable.
type TSDBConfig struct {
	// Step is the expected scrape interval (default 1s). It sizes the rings
	// (points = Retention/Step) and paces StartScraper; Observe does not
	// enforce it.
	Step time.Duration
	// Retention is how far back a series answers Increase (default 1h).
	Retention time.Duration
}

func (c *TSDBConfig) defaults() {
	if c.Step <= 0 {
		c.Step = time.Second
	}
	if c.Retention <= 0 {
		c.Retention = time.Hour
	}
}

// points is the ring capacity (≥ 2 so every series can answer at least one
// increase).
func (c *TSDBConfig) points() int {
	return max(int(c.Retention/c.Step), 2)
}

// sample is one stored counter reading.
type sample struct {
	t int64   // Unix milliseconds
	v float64 // cumulative counter value
}

// ring is one series' retained samples, oldest at head.
type ring struct {
	buf  []sample
	head int
	n    int
}

func (r *ring) push(s sample) {
	if r.n < len(r.buf) {
		r.buf[(r.head+r.n)%len(r.buf)] = s
		r.n++
		return
	}
	r.buf[r.head] = s
	r.head = (r.head + 1) % len(r.buf)
}

// at returns the k-th oldest retained sample (0 ≤ k < n).
func (r *ring) at(k int) sample { return r.buf[(r.head+k)%len(r.buf)] }

// oldestSince returns the logical index of the oldest sample with time ≥
// cutoff, or -1 when none qualifies. Samples are pushed in nondecreasing
// time order, so a binary search applies.
func (r *ring) oldestSince(cutoff int64) int {
	lo, hi := 0, r.n
	for lo < hi {
		mid := (lo + hi) / 2
		if r.at(mid).t >= cutoff {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	if lo == r.n {
		return -1
	}
	return lo
}

// TSDB is the in-process counter store. All methods are safe for
// concurrent use; Observe and Increase share one mutex, so a scrape and an
// SLO evaluation never interleave mid-sample.
type TSDB struct {
	mu     sync.Mutex
	cfg    TSDBConfig
	series map[string]*ring
}

// NewTSDB creates an empty store.
func NewTSDB(cfg TSDBConfig) *TSDB {
	cfg.defaults()
	return &TSDB{cfg: cfg, series: map[string]*ring{}}
}

// Step reports the configured scrape step.
func (db *TSDB) Step() time.Duration { return db.cfg.Step }

// Observe samples the counters of one snapshot at time t; gauges and
// histograms are ignored. Series absent from the snapshot simply age out of
// their retention window. Samples must arrive in nondecreasing time order
// (the scraper guarantees it); an out-of-order sample is dropped.
func (db *TSDB) Observe(t time.Time, snap *Snapshot) {
	if snap == nil {
		return
	}
	ms := t.UnixMilli()
	db.mu.Lock()
	defer db.mu.Unlock()
	for _, c := range snap.Counters {
		id := SeriesID(c.Name, c.Labels)
		r, ok := db.series[id]
		if !ok {
			r = &ring{buf: make([]sample, db.cfg.points())}
			db.series[id] = r
		}
		if r.n > 0 && ms < r.at(r.n-1).t {
			continue // out-of-order sample
		}
		r.push(sample{t: ms, v: float64(c.Value)})
	}
}

// Increase returns a counter's increase over the window ending at its
// newest sample. A decrease (counter reset, e.g. a fleet source evicted
// mid-run) clamps to the newest value — Prometheus's reset convention. ok
// is false when the series is absent or holds fewer than two in-window
// samples.
func (db *TSDB) Increase(id string, window time.Duration) (delta float64, ok bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	r, found := db.series[id]
	if !found || r.n == 0 {
		return 0, false
	}
	newest := r.at(r.n - 1)
	k0 := r.oldestSince(newest.t - window.Milliseconds())
	if k0 < 0 || k0 >= r.n-1 {
		return 0, false
	}
	delta = newest.v - r.at(k0).v
	if delta < 0 {
		delta = newest.v
	}
	return delta, true
}

// Scraper periodically samples a snapshot source into a TSDB and, when an
// SLO engine is attached, evaluates it after every sample — one tick is
// one deterministic scrape-then-evaluate step, exposed directly as Tick
// for tests and benchmarks.
type Scraper struct {
	cfg  ScraperConfig
	done chan struct{}
	once sync.Once
}

// ScraperConfig wires a scraper.
type ScraperConfig struct {
	// DB receives the samples.
	DB *TSDB
	// Snapshot produces the state to sample (e.g. Registry.Snapshot or
	// Collector.Merged).
	Snapshot func() *Snapshot
	// SLO, when non-nil, is evaluated after every scrape.
	SLO *SLOEngine
	// Now substitutes the clock (tests/benchmarks); nil means time.Now.
	Now func() time.Time
}

// NewScraper builds a scraper without starting it (deterministic use:
// call Tick yourself).
func NewScraper(cfg ScraperConfig) *Scraper {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Scraper{cfg: cfg, done: make(chan struct{})}
}

// Tick performs one scrape-and-evaluate step at the scraper's current
// clock reading.
func (s *Scraper) Tick() {
	now := s.cfg.Now()
	s.cfg.DB.Observe(now, s.cfg.Snapshot())
	if s.cfg.SLO != nil {
		s.cfg.SLO.Evaluate(now)
	}
}

// StartScraper builds and starts a scraper ticking at the TSDB's step
// until Stop. One immediate tick runs before the ticker starts, so short
// runs still record history.
func StartScraper(cfg ScraperConfig) *Scraper {
	s := NewScraper(cfg)
	s.Tick()
	go func() {
		t := time.NewTicker(cfg.DB.Step())
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				s.Tick()
			}
		}
	}()
	return s
}

// Stop halts a started scraper. Safe to call more than once, and on a
// never-started scraper.
func (s *Scraper) Stop() {
	s.once.Do(func() { close(s.done) })
}

// ParseWindow parses an objective window ("30s", "5m", "1h"), rejecting
// non-positive results.
func ParseWindow(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("obs: bad window %q: %v", s, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("obs: window %q must be positive", s)
	}
	return d, nil
}
