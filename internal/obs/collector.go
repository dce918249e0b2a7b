package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Collector is the central merge point of the distributed observability
// plane: it ingests full-state wire snapshots from many sources, keeps the
// freshest envelope per source, and renders the exact cross-source merge on
// demand. Because pushes carry full state and Registry.Merge is exact for
// counters and histogram buckets, the merged view equals the registry one
// process would have built running all the sources' work — the sweep
// engine's parallel-equals-serial guarantee extended across machines.
//
// Staleness: a source that stops pushing without a final envelope (a
// crashed or partitioned worker) is evicted once it has been silent longer
// than the configured window, removing its partial contribution from the
// merge. Final sources are complete and never evicted.
type Collector struct {
	mu      sync.Mutex
	stale   time.Duration
	now     func() time.Time
	logf    func(format string, args ...any)
	src     map[string]*sourceState
	evicted int64
	started time.Time
}

type sourceState struct {
	ws       *WireSnapshot
	lastSeen time.Time
	pushes   int64
	dups     int64
}

// CollectorConfig configures a collector.
type CollectorConfig struct {
	// Stale is the eviction window for non-final sources; ≤ 0 disables
	// eviction.
	Stale time.Duration
	// Now substitutes the clock (tests); nil means time.Now.
	Now func() time.Time
	// Logf, when non-nil, receives ingest/eviction log lines.
	Logf func(format string, args ...any)
}

// NewCollector creates an empty collector.
func NewCollector(cfg CollectorConfig) *Collector {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	return &Collector{
		stale:   cfg.Stale,
		now:     now,
		logf:    cfg.Logf,
		src:     map[string]*sourceState{},
		started: now(),
	}
}

// Ingest folds one validated envelope in. Duplicate or out-of-order pushes
// (seq ≤ the highest seen from that source) refresh the source's liveness
// but do not change its stored state — the retry idempotence the pusher
// relies on. Returns whether the envelope replaced the source's state. An
// envelope carrying a family under another kind than the other tracked
// sources do is rejected whole, since the merge could not hold both.
func (c *Collector) Ingest(ws *WireSnapshot) (applied bool, err error) {
	kinds, err := ws.validate()
	if err != nil {
		return false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, st := range c.src {
		if id != ws.Source.ID && st.ws != nil {
			if err := st.ws.Snapshot.addKinds(kinds); err != nil {
				return false, err
			}
		}
	}
	st, ok := c.src[ws.Source.ID]
	if !ok {
		st = &sourceState{}
		c.src[ws.Source.ID] = st
		if c.logf != nil {
			c.logf("obs: new source %s", ws.Source)
		}
	}
	st.lastSeen = c.now()
	st.pushes++
	if st.ws != nil && ws.Seq <= st.ws.Seq {
		st.dups++
		return false, nil
	}
	st.ws = ws
	if ws.Final && c.logf != nil {
		c.logf("obs: source %s final (seq %d)", ws.Source, ws.Seq)
	}
	return true, nil
}

// EvictStale removes non-final sources silent longer than the staleness
// window and returns how many were evicted. Called lazily by every read
// path, so a collector that is only scraped still converges.
func (c *Collector) EvictStale() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evictLocked()
}

func (c *Collector) evictLocked() int {
	if c.stale <= 0 {
		return 0
	}
	cutoff := c.now().Add(-c.stale)
	n := 0
	for id, st := range c.src {
		if st.ws != nil && st.ws.Final {
			continue
		}
		if st.lastSeen.Before(cutoff) {
			delete(c.src, id)
			c.evicted++
			n++
			if c.logf != nil {
				c.logf("obs: evicted stale source %s (silent > %s)", id, c.stale)
			}
		}
	}
	return n
}

// MergedRegistry merges every live source's snapshot into a fresh registry.
// Sources merge in sorted-ID order, so gauge collisions (last set wins)
// resolve deterministically.
func (c *Collector) MergedRegistry() *Registry {
	c.mu.Lock()
	c.evictLocked()
	snaps := make([]*Snapshot, 0, len(c.src))
	ids := make([]string, 0, len(c.src))
	for id := range c.src {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if ws := c.src[id].ws; ws != nil {
			snaps = append(snaps, ws.Snapshot)
		}
	}
	c.mu.Unlock()
	reg := NewRegistry()
	for _, s := range snaps {
		reg.MergeSnapshot(s)
	}
	return reg
}

// Merged returns the cross-source merged snapshot.
func (c *Collector) Merged() *Snapshot { return c.MergedRegistry().Snapshot() }

// SourceStatus reports one tracked source.
type SourceStatus struct {
	Source     Source    `json:"source"`
	Seq        uint64    `json:"seq"`
	Final      bool      `json:"final,omitempty"`
	Pushes     int64     `json:"pushes"`
	Duplicates int64     `json:"duplicates,omitempty"`
	LastSeen   time.Time `json:"last_seen"`
}

// Sources lists the live sources in sorted-ID order.
func (c *Collector) Sources() []SourceStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
	out := make([]SourceStatus, 0, len(c.src))
	for _, st := range c.src {
		s := SourceStatus{Pushes: st.pushes, Duplicates: st.dups, LastSeen: st.lastSeen}
		if st.ws != nil {
			s.Source, s.Seq, s.Final = st.ws.Source, st.ws.Seq, st.ws.Final
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source.ID < out[j].Source.ID })
	return out
}

// Evicted returns the total sources evicted for staleness.
func (c *Collector) Evicted() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

// Dump is the archival form flushed on collector shutdown: the full merged
// snapshot plus the per-source ledger, as one JSON document.
type Dump struct {
	WireVersion int            `json:"wire_version"`
	Written     time.Time      `json:"written"`
	Evicted     int64          `json:"evicted,omitempty"`
	Sources     []SourceStatus `json:"sources"`
	Merged      *Snapshot      `json:"merged"`
}

// Dump captures the collector's full state for archival.
func (c *Collector) Dump() *Dump {
	return &Dump{
		WireVersion: WireVersion,
		Written:     c.now(),
		Evicted:     c.Evicted(),
		Sources:     c.Sources(),
		Merged:      c.Merged(),
	}
}

// WriteDump writes the archival JSON (indented, trailing newline).
func (c *Collector) WriteDump(w io.Writer) error {
	b, err := json.MarshalIndent(c.Dump(), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Handler returns the collector's HTTP surface:
//
//	POST /push     ingest one wire snapshot
//	GET  /metrics  Prometheus text format of the merged view — exactly the
//	               merged worker registries, no collector-own series, so it
//	               can be diffed byte-for-byte against a single process
//	GET  /sources  per-source ledger as text
//	GET  /dump     archival JSON (same document the shutdown flush writes)
//	GET  /         live fleet dashboard (text)
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PushPath, func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		ws, err := DecodeWire(http.MaxBytesReader(w, r.Body, maxWireBytes+1))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := c.Ingest(ws); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = c.MergedRegistry().WriteProm(w)
	})
	mux.HandleFunc("/sources", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		c.writeSources(w)
	})
	mux.HandleFunc("/dump", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = c.WriteDump(w)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		c.WriteDashboard(w)
	})
	return mux
}

func (c *Collector) writeSources(w io.Writer) {
	srcs := c.Sources()
	now := c.now()
	fmt.Fprintf(w, "%-32s %6s %7s %5s %8s  %s\n", "SOURCE", "SEQ", "PUSHES", "DUPS", "AGE", "STATE")
	for _, s := range srcs {
		state := "live"
		if s.Final {
			state = "final"
		}
		fmt.Fprintf(w, "%-32s %6d %7d %5d %8s  %s\n",
			s.Source.String(), s.Seq, s.Pushes, s.Duplicates,
			now.Sub(s.LastSeen).Truncate(time.Millisecond), state)
	}
	if len(srcs) == 0 {
		fmt.Fprintln(w, "(no sources)")
	}
}

// WriteDashboard renders the live fleet view: source ledger, sweep progress
// (units done/failed, worker occupancy), per-experiment miss rates, and
// per-core busy/migration/idle fractions per source.
func (c *Collector) WriteDashboard(w io.Writer) {
	srcs := c.Sources()
	merged := c.Merged()
	fmt.Fprintf(w, "rtopex obscollect — %d source(s), %d evicted, up %s\n\n",
		len(srcs), c.Evicted(), c.now().Sub(c.started).Truncate(time.Second))
	c.writeSources(w)

	// Fleet-wide sweep progress from the merged counters (exact sums).
	if total, ok := merged.CounterValue("rtopex_sweep_units_total"); ok {
		done, _ := merged.CounterValue("rtopex_sweep_units_done_total")
		failed, _ := merged.CounterValue("rtopex_sweep_units_failed_total")
		reused, _ := merged.CounterValue("rtopex_sweep_units_reused_total")
		fmt.Fprintf(w, "\nsweep: %d/%d units done, %d failed, %d reused\n", done, total, failed, reused)
	}
	// Occupancy sums per-source gauges: a cross-source gauge merge
	// overwrites, so the fleet totals come from the envelopes directly.
	var busy, workers float64
	var haveOcc bool
	c.mu.Lock()
	for _, st := range c.src {
		if st.ws == nil {
			continue
		}
		if v, ok := st.ws.Snapshot.GaugeValue("rtopex_sweep_workers"); ok {
			workers += v
			haveOcc = true
		}
		if v, ok := st.ws.Snapshot.GaugeValue("rtopex_sweep_workers_busy"); ok {
			busy += v
		}
	}
	c.mu.Unlock()
	if haveOcc {
		fmt.Fprintf(w, "occupancy: %.0f/%.0f workers busy across the fleet\n", busy, workers)
	}

	// Per-experiment miss rates from the merged gauges.
	var missLines []string
	for _, g := range merged.Gauges {
		if g.Name != "rtopex_experiment_miss_rate" {
			continue
		}
		missLines = append(missLines, fmt.Sprintf("  %-40s %.4g", canonicalLabels(g.Labels), g.Value))
	}
	if len(missLines) > 0 {
		fmt.Fprintf(w, "\nper-experiment miss rate:\n%s\n", strings.Join(missLines, "\n"))
	}

	// Per-core utilization is per source: core ids collide across machines,
	// so the fractions render under their source rather than merged.
	for _, s := range srcs {
		lines := coreLines(c.sourceSnapshot(s.Source.ID))
		if len(lines) > 0 {
			fmt.Fprintf(w, "\nper-core utilization (%s):\n%s\n", s.Source.ID, strings.Join(lines, "\n"))
		}
	}
}

func (c *Collector) sourceSnapshot(id string) *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	if st, ok := c.src[id]; ok && st.ws != nil {
		return st.ws.Snapshot
	}
	return nil
}

// coreLines extracts the accountant's per-core fraction gauges from one
// snapshot as "core N: busy/mig/idle" lines, sorted by core.
func coreLines(s *Snapshot) []string {
	if s == nil {
		return nil
	}
	type frac struct{ busy, mig, idle float64 }
	cores := map[string]*frac{}
	get := func(core string) *frac {
		f, ok := cores[core]
		if !ok {
			f = &frac{}
			cores[core] = f
		}
		return f
	}
	for _, g := range s.Gauges {
		var core string
		for _, l := range g.Labels {
			if l.Key == "core" {
				core = l.Value
			}
		}
		if core == "" {
			continue
		}
		switch g.Name {
		case "rtopex_core_busy_fraction":
			get(core).busy = g.Value
		case "rtopex_core_migration_fraction":
			get(core).mig = g.Value
		case "rtopex_core_idle_fraction":
			get(core).idle = g.Value
		}
	}
	ids := make([]string, 0, len(cores))
	for id := range cores {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if len(ids[i]) != len(ids[j]) { // numeric-ish: shorter decimal first
			return len(ids[i]) < len(ids[j])
		}
		return ids[i] < ids[j]
	})
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		f := cores[id]
		out = append(out, fmt.Sprintf("  core %3s: busy %.3f  mig %.3f  idle %.3f", id, f.busy, f.mig, f.idle))
	}
	return out
}
