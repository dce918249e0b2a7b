package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if same := r.Counter("jobs_total"); same != c {
		t.Fatal("Counter should return the same handle for the same series")
	}

	g := r.Gauge("occupancy")
	if g.IsSet() {
		t.Fatal("fresh gauge should be unset")
	}
	g.Set(0.25)
	g.Add(0.5)
	if got := g.Value(); got != 0.75 {
		t.Fatalf("gauge = %v, want 0.75", got)
	}
	if !g.IsSet() {
		t.Fatal("gauge should be set after Set")
	}
}

func TestNegativeCounterPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) should panic")
		}
	}()
	NewRegistry().Counter("x").Add(-1)
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual")
	defer func() {
		if recover() == nil {
			t.Fatal("requesting a counter family as a gauge should panic")
		}
	}()
	r.Gauge("dual")
}

func TestLabelsDistinguishSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("miss_total", L("sched", "partitioned"))
	b := r.Counter("miss_total", L("sched", "rt-opex"))
	if a == b {
		t.Fatal("different label values must be different series")
	}
	a.Inc()
	// Label order must not matter.
	c := r.Counter("miss_total", L("core", "1"), L("sched", "x"))
	d := r.Counter("miss_total", L("sched", "x"), L("core", "1"))
	if c != d {
		t.Fatal("label order changed series identity")
	}
}

func TestSeriesID(t *testing.T) {
	if got := SeriesID("up", nil); got != "up" {
		t.Fatalf("SeriesID = %q", got)
	}
	got := SeriesID("m", []Label{L("b", "2"), L("a", `x"y\z`)})
	want := `m{a="x\"y\\z",b="2"}`
	if got != want {
		t.Fatalf("SeriesID = %q, want %q", got, want)
	}
}

func TestRegistryMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("n").Add(3)
	b.Counter("n").Add(4)
	b.Counter("only_b").Inc()
	a.Gauge("g").Set(1)
	b.Gauge("g").Set(2)
	b.Gauge("unset") // never Set: must not clobber on merge
	a.Histogram("h").Observe(10)
	b.Histogram("h").Observe(20)

	a.Merge(b)
	if got := a.Counter("n").Value(); got != 7 {
		t.Fatalf("merged counter = %d, want 7", got)
	}
	if got := a.Counter("only_b").Value(); got != 1 {
		t.Fatalf("merged new counter = %d, want 1", got)
	}
	if got := a.Gauge("g").Value(); got != 2 {
		t.Fatalf("merged gauge = %v, want 2 (set gauges overwrite)", got)
	}
	if got := a.Histogram("h").Count(); got != 2 {
		t.Fatalf("merged histogram count = %d, want 2", got)
	}
}

func TestSnapshotDeterministicAndMergeable(t *testing.T) {
	fill := func() *Registry {
		r := NewRegistry()
		r.Counter("z_total").Add(2)
		r.Counter("a_total", L("k", "v")).Add(1)
		r.Gauge("mid").Set(3.5)
		r.Histogram("lat").Observe(7)
		return r
	}
	s1, s2 := fill().Snapshot(), fill().Snapshot()
	var b1, b2 strings.Builder
	if err := json.NewEncoder(&b1).Encode(s1); err != nil {
		t.Fatal(err)
	}
	if err := json.NewEncoder(&b2).Encode(s2); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("identical registries rendered differently:\n%s\nvs\n%s", b1.String(), b2.String())
	}
	// Series must come out sorted by id.
	if len(s1.Counters) != 2 || s1.Counters[0].Name != "a_total" {
		t.Fatalf("counters not sorted: %+v", s1.Counters)
	}

	r := NewRegistry()
	r.MergeSnapshot(s1)
	r.MergeSnapshot(s2)
	merged := r.Snapshot()
	if merged.Counters[1].Value != 4 {
		t.Fatalf("snapshot merge: z_total = %d, want 4", merged.Counters[1].Value)
	}
	if merged.Histograms[0].Value.Count != 2 {
		t.Fatalf("snapshot merge: histogram count = %d, want 2", merged.Histograms[0].Value.Count)
	}
}
