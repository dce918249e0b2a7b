package obs

import (
	"fmt"
	"sort"
	"strconv"
)

// CounterValue is one counter series in a snapshot.
type CounterValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  int64   `json:"value"`
}

// GaugeValue is one gauge series in a snapshot.
type GaugeValue struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramSeries is one histogram series in a snapshot.
type HistogramSeries struct {
	Name   string         `json:"name"`
	Labels []Label        `json:"labels,omitempty"`
	Value  HistogramValue `json:"value"`
}

// Snapshot is the serializable state of a registry at one instant. Series
// are sorted by canonical id, buckets by index, and Help keys by name (Go
// marshals map keys sorted), so identical registry states yield
// byte-identical JSON — the property the sweep's artifact determinism
// guarantee is stated over.
type Snapshot struct {
	Counters   []CounterValue    `json:"counters,omitempty"`
	Gauges     []GaugeValue      `json:"gauges,omitempty"`
	Histograms []HistogramSeries `json:"histograms,omitempty"`
	// Help carries the families' HELP text (name → help) so a snapshot
	// merged on another machine renders the same /metrics exposition as the
	// registry it came from.
	Help map[string]string `json:"help,omitempty"`
}

// Snapshot captures the registry's current state. Unset gauges are skipped.
func (r *Registry) Snapshot() *Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	snap := &Snapshot{}
	for _, f := range r.fams {
		if f.help != "" {
			if snap.Help == nil {
				snap.Help = map[string]string{}
			}
			snap.Help[f.name] = f.help
		}
		for _, s := range f.series {
			switch f.k {
			case counterKind:
				snap.Counters = append(snap.Counters, CounterValue{f.name, s.labels, s.c.Value()})
			case gaugeKind:
				if s.g.IsSet() {
					snap.Gauges = append(snap.Gauges, GaugeValue{f.name, s.labels, s.g.Value()})
				}
			case histogramKind:
				snap.Histograms = append(snap.Histograms, HistogramSeries{f.name, s.labels, s.h.Value()})
			}
		}
	}
	sort.Slice(snap.Counters, func(i, j int) bool {
		return SeriesID(snap.Counters[i].Name, snap.Counters[i].Labels) < SeriesID(snap.Counters[j].Name, snap.Counters[j].Labels)
	})
	sort.Slice(snap.Gauges, func(i, j int) bool {
		return SeriesID(snap.Gauges[i].Name, snap.Gauges[i].Labels) < SeriesID(snap.Gauges[j].Name, snap.Gauges[j].Labels)
	})
	sort.Slice(snap.Histograms, func(i, j int) bool {
		return SeriesID(snap.Histograms[i].Name, snap.Histograms[i].Labels) < SeriesID(snap.Histograms[j].Name, snap.Histograms[j].Labels)
	})
	return snap
}

// MergeSnapshot folds a snapshot into the registry: counters and histogram
// buckets add, gauges overwrite. This is the cross-shard (and cross-machine)
// aggregation path: merging per-shard snapshots produces exactly the
// registry a serial run over all shards would have built.
func (r *Registry) MergeSnapshot(s *Snapshot) {
	if s == nil {
		return
	}
	for name, help := range s.Help {
		r.SetHelp(name, help)
	}
	for _, c := range s.Counters {
		r.Counter(c.Name, c.Labels...).Add(c.Value)
	}
	for _, g := range s.Gauges {
		r.Gauge(g.Name, g.Labels...).Set(g.Value)
	}
	for _, h := range s.Histograms {
		r.Histogram(h.Name, h.Labels...).MergeValue(h.Value)
	}
}

// addKinds records the kind of every family s carries into kinds, failing
// on what MergeSnapshot would panic on: a negative counter, or a family
// whose kind differs from one already recorded.
func (s *Snapshot) addKinds(kinds map[string]kind) error {
	add := func(name string, k kind) error {
		if old, ok := kinds[name]; ok && old != k {
			return fmt.Errorf("obs: metric %q carried as both %s and %s", name, old, k)
		}
		kinds[name] = k
		return nil
	}
	for _, c := range s.Counters {
		if c.Value < 0 {
			return fmt.Errorf("obs: counter %q is negative (%d)", c.Name, c.Value)
		}
		if err := add(c.Name, counterKind); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		if err := add(g.Name, gaugeKind); err != nil {
			return err
		}
	}
	for _, h := range s.Histograms {
		if err := add(h.Name, histogramKind); err != nil {
			return err
		}
	}
	return nil
}

// CounterValue looks up one counter series by identity (false when absent).
func (s *Snapshot) CounterValue(name string, labels ...Label) (int64, bool) {
	id := SeriesID(name, labels)
	for _, c := range s.Counters {
		if SeriesID(c.Name, c.Labels) == id {
			return c.Value, true
		}
	}
	return 0, false
}

// GaugeValue looks up one gauge series by identity (false when absent).
func (s *Snapshot) GaugeValue(name string, labels ...Label) (float64, bool) {
	id := SeriesID(name, labels)
	for _, g := range s.Gauges {
		if SeriesID(g.Name, g.Labels) == id {
			return g.Value, true
		}
	}
	return 0, false
}

// formatFloat renders a float with the shortest round-trip representation,
// the same convention the Prometheus writer uses.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
