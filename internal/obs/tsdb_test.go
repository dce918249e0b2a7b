package obs

import (
	"math/rand"
	"testing"
	"time"
)

// rawSample pairs a scrape time with the full snapshot taken then — the
// "raw registry snapshots" the property test recomputes answers from.
type rawSample struct {
	t    int64
	snap *Snapshot
}

// naiveWindow resolves the same [newest−window, newest] range the store
// uses, over a plain retained-sample slice instead of a ring.
func naiveWindow(raws []rawSample, window time.Duration) (k0, k1 int, ok bool) {
	if len(raws) == 0 {
		return 0, 0, false
	}
	k1 = len(raws) - 1
	cutoff := raws[k1].t - window.Milliseconds()
	k0 = -1
	for k := range raws {
		if raws[k].t >= cutoff {
			k0 = k
			break
		}
	}
	if k0 < 0 || k0 >= k1 {
		return 0, 0, false
	}
	return k0, k1, true
}

// TestTSDBMatchesRawSnapshots is the history plane's exactness property:
// every windowed counter increase the store gives must equal the increase
// recomputed directly from the retained raw registry snapshots, at every
// step boundary of a seeded random run. Gauges and histograms in the same
// snapshots are not stored.
func TestTSDBMatchesRawSnapshots(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := TSDBConfig{Step: time.Second, Retention: 30 * time.Second}
	db := NewTSDB(cfg)

	reg := NewRegistry()
	reqs := reg.Counter("req_total")
	miss := reg.Counter("miss_total", L("core", "0"))
	load := reg.Gauge("load")
	lat := reg.Histogram("lat_ms")

	counterIDs := []string{"req_total", SeriesID("miss_total", []Label{L("core", "0")})}
	windows := []time.Duration{3 * time.Second, 9 * time.Second, 30 * time.Second, time.Hour}
	capacity := cfg.points()

	t0 := time.UnixMilli(1_700_000_000_000)
	var raws []rawSample
	for step := 0; step < 100; step++ {
		reqs.Add(int64(rng.Intn(50)))
		miss.Add(int64(rng.Intn(5)))
		load.Set(rng.Float64() * 64)
		lat.Observe(rng.Float64() * 100)
		now := t0.Add(time.Duration(step) * cfg.Step)
		snap := reg.Snapshot()
		db.Observe(now, snap)
		raws = append(raws, rawSample{t: now.UnixMilli(), snap: snap})

		// The naive view retains exactly what the rings can hold.
		retained := raws
		if len(retained) > capacity {
			retained = retained[len(retained)-capacity:]
		}
		for _, w := range windows {
			for _, id := range counterIDs {
				k0, k1, wantOK := naiveWindow(retained, w)
				delta, ok := db.Increase(id, w)
				if ok != wantOK {
					t.Fatalf("step %d %s window %s: Increase ok=%v, want %v", step, id, w, ok, wantOK)
				}
				if !ok {
					continue
				}
				v0, _ := counterByID(retained[k0].snap, id)
				v1, _ := counterByID(retained[k1].snap, id)
				if want := float64(v1 - v0); delta != want {
					t.Fatalf("step %d %s window %s: Increase = %v, want %v", step, id, w, delta, want)
				}
			}
			for _, id := range []string{"load", "lat_ms"} {
				if _, ok := db.Increase(id, w); ok {
					t.Fatalf("step %d: %s answered Increase, but only counters are stored", step, id)
				}
			}
		}
	}
}

// counterByID looks up one counter series in a snapshot by canonical id
// (the production accessor takes name+labels).
func counterByID(s *Snapshot, id string) (int64, bool) {
	for _, c := range s.Counters {
		if SeriesID(c.Name, c.Labels) == id {
			return c.Value, true
		}
	}
	return 0, false
}

// TestTSDBRingEviction: a full ring drops its oldest samples, so a window
// wider than retention answers over what is retained.
func TestTSDBRingEviction(t *testing.T) {
	db := NewTSDB(TSDBConfig{Step: time.Second, Retention: 5 * time.Second})
	reg := NewRegistry()
	c := reg.Counter("n_total")
	t0 := time.UnixMilli(0)
	for i := 0; i < 20; i++ {
		c.Add(1)
		db.Observe(t0.Add(time.Duration(i)*time.Second), reg.Snapshot())
	}
	// Five retained samples, 16..20: the increase is 4 however wide the
	// window, and a 2s window spans the last three.
	if delta, ok := db.Increase("n_total", time.Hour); !ok || delta != 4 {
		t.Fatalf("Increase over retention = %v (ok=%v), want 4", delta, ok)
	}
	if delta, ok := db.Increase("n_total", 2*time.Second); !ok || delta != 2 {
		t.Fatalf("Increase over 2s = %v (ok=%v), want 2", delta, ok)
	}
}

// TestTSDBCounterReset: a decrease (source restart / eviction) clamps the
// increase to the newest value, never a negative delta.
func TestTSDBCounterReset(t *testing.T) {
	db := NewTSDB(TSDBConfig{Step: time.Second, Retention: time.Minute})
	snapAt := func(v int64) *Snapshot {
		return &Snapshot{Counters: []CounterValue{{Name: "n_total", Value: v}}}
	}
	db.Observe(time.UnixMilli(0), snapAt(100))
	db.Observe(time.UnixMilli(1000), snapAt(150))
	db.Observe(time.UnixMilli(2000), snapAt(7)) // reset
	if delta, ok := db.Increase("n_total", time.Minute); !ok || delta != 7 {
		t.Fatalf("Increase after reset = (%v, %v), want (7, true)", delta, ok)
	}
}

// TestTSDBOutOfOrderDropped: a sample older than the newest stored one is
// ignored (the scraper guarantees monotone time; replay safety requires
// dropping violations, not reordering).
func TestTSDBOutOfOrderDropped(t *testing.T) {
	db := NewTSDB(TSDBConfig{})
	snapAt := func(v int64) *Snapshot {
		return &Snapshot{Counters: []CounterValue{{Name: "n_total", Value: v}}}
	}
	db.Observe(time.UnixMilli(5000), snapAt(5))
	db.Observe(time.UnixMilli(1000), snapAt(90))
	db.Observe(time.UnixMilli(6000), snapAt(6))
	if delta, ok := db.Increase("n_total", time.Minute); !ok || delta != 1 {
		t.Fatalf("Increase = %v (ok=%v), want 1 from the in-order samples", delta, ok)
	}
}

// TestScraperTickDeterministic: Tick samples at the injected clock and
// evaluates the attached SLO engine; no background goroutine involved.
func TestScraperTickDeterministic(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("n_total")
	db := NewTSDB(TSDBConfig{Step: time.Second})
	now := time.UnixMilli(0)
	s := NewScraper(ScraperConfig{
		DB:       db,
		Snapshot: reg.Snapshot,
		Now:      func() time.Time { return now },
	})
	for i := 0; i < 3; i++ {
		c.Add(5)
		s.Tick()
		now = now.Add(time.Second)
	}
	if delta, ok := db.Increase("n_total", time.Minute); !ok || delta != 10 {
		t.Fatalf("Increase = %v (ok=%v), want 10 over the 3 ticks", delta, ok)
	}
	s.Stop()
	s.Stop() // idempotent, including on a never-started scraper
}

// TestParseWindow: accepted forms and rejections.
func TestParseWindow(t *testing.T) {
	if d, err := ParseWindow("5m"); err != nil || d != 5*time.Minute {
		t.Fatalf("ParseWindow(5m) = %v, %v", d, err)
	}
	for _, bad := range []string{"", "x", "-3s", "0s"} {
		if _, err := ParseWindow(bad); err == nil {
			t.Fatalf("ParseWindow(%q) should fail", bad)
		}
	}
}
