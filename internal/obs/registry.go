// Package obs is the live observability plane: a concurrency-safe,
// mergeable metrics registry (counters, gauges, log-linear histograms with
// bounded relative error), a per-core utilization accountant driven by the
// run-level trace events, Prometheus text-format exposition, and an opt-in
// HTTP endpoint bundling /metrics with expvar and net/http/pprof.
//
// Mergeability is the design center. The sweep engine runs shards on a
// worker pool (and, per the ROADMAP, eventually on many machines); each
// shard can fill its own registry and the shard registries merge exactly:
// counters and histogram buckets sum, so the merged histogram is
// bucket-for-bucket identical to one filled serially with the same samples
// — the sweep's parallel-equals-serial guarantee extended from means to
// quantiles. Snapshots are the serialized form: deterministic JSON suitable
// for embedding in sweep artifact records and diffing in the baseline gate.
package obs

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension of a metric series.
type Label struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically nondecreasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas panic (counters only go up — use a Gauge).
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: negative counter delta")
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a settable float metric. The zero Gauge reads as 0 and "unset";
// merges only overwrite with gauges that have been set.
type Gauge struct {
	bits atomic.Uint64
	set  atomic.Bool
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(floatBits(v))
	g.set.Store(true)
}

// Add increments the gauge by d (atomically).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(bitsFloat(old)+d)) {
			g.set.Store(true)
			return
		}
	}
}

// Value returns the current value (0 when never set).
func (g *Gauge) Value() float64 { return bitsFloat(g.bits.Load()) }

// IsSet reports whether the gauge was ever written.
func (g *Gauge) IsSet() bool { return g.set.Load() }

// kind discriminates the metric families a registry holds.
type kind uint8

const (
	counterKind kind = iota
	gaugeKind
	histogramKind
)

func (k kind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	case histogramKind:
		return "histogram"
	}
	return "unknown"
}

// series is one labeled instance of a metric family.
type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	k      kind
	series map[string]*series // by canonical label string
}

// Registry is a concurrency-safe collection of metric families. The zero
// value is not usable; construct with NewRegistry. Counter/Gauge/Histogram
// return get-or-create handles, so hot paths can cache them and bypass the
// registry lock entirely.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{fams: map[string]*family{}} }

// SetHelp attaches Prometheus HELP text to a metric family (created lazily
// as needed; the kind is fixed by the first typed accessor).
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, series: map[string]*series{}}
		r.fams[name] = f
	}
	f.help = help
}

// Counter returns (creating if needed) the counter series name{labels}.
// Using a name already registered under a different kind panics: it is a
// programming error that would corrupt the exposition.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	s := r.getSeries(name, counterKind, labels)
	return s.c
}

// Gauge returns (creating if needed) the gauge series name{labels}.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	s := r.getSeries(name, gaugeKind, labels)
	return s.g
}

// Histogram returns (creating if needed) the histogram series name{labels}.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	s := r.getSeries(name, histogramKind, labels)
	return s.h
}

func (r *Registry) getSeries(name string, k kind, labels []Label) *series {
	key := canonicalLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, k: k, series: map[string]*series{}}
		r.fams[name] = f
	} else if len(f.series) > 0 && f.k != k {
		panic(fmt.Sprintf("obs: metric %q is a %s, requested as %s", name, f.k, k))
	} else if len(f.series) == 0 {
		f.k = k
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: sortedLabels(labels)}
		switch k {
		case counterKind:
			s.c = &Counter{}
		case gaugeKind:
			s.g = &Gauge{}
		case histogramKind:
			s.h = NewHistogram()
		}
		f.series[key] = s
	}
	return s
}

// compareLabels orders labels by key, ties by value.
func compareLabels(a, b Label) int {
	if c := strings.Compare(a.Key, b.Key); c != 0 {
		return c
	}
	return strings.Compare(a.Value, b.Value)
}

// sortedLabels returns a copy of labels sorted by key (ties by value).
func sortedLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	slices.SortFunc(out, compareLabels)
	return out
}

// canonicalLabels renders labels as the canonical `k="v",…` string (sorted
// by key), the series identity within a family. Labels that arrive sorted,
// as a single label always does, render in one allocation.
func canonicalLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := labels
	if !slices.IsSortedFunc(ls, compareLabels) {
		ls = sortedLabels(labels)
	}
	n := 0
	for _, l := range ls {
		n += len(l.Key) + len(l.Value) + len(`="",`)
	}
	var b strings.Builder
	b.Grow(n)
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escaping rules.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// SeriesID renders the canonical identity of one series: name alone, or
// name{k="v",…} with labels sorted by key.
func SeriesID(name string, labels []Label) string {
	ls := canonicalLabels(labels)
	if ls == "" {
		return name
	}
	return name + "{" + ls + "}"
}

// Merge folds another registry into r: counters and histogram buckets sum,
// set gauges overwrite. Equivalent to r.MergeSnapshot(other.Snapshot()).
func (r *Registry) Merge(other *Registry) { r.MergeSnapshot(other.Snapshot()) }
