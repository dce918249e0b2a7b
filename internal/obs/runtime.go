package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// runtimeSamples maps runtime/metrics names to the gauge names we expose.
// Kept small on purpose: the point is catching GC interference (the README's
// caveat) while it happens, not mirroring the whole runtime.
var runtimeSamples = []struct {
	src, dst string
	help     string
}{
	{"/memory/classes/heap/objects:bytes", "rtopex_go_heap_objects_bytes", "Bytes of live heap objects."},
	{"/gc/cycles/total:gc-cycles", "rtopex_go_gc_cycles_total", "Completed GC cycles."},
	{"/sched/goroutines:goroutines", "rtopex_go_goroutines", "Live goroutines."},
	{"/gc/pauses:seconds", "rtopex_go_gc_pause_seconds", "Distribution of GC stop-the-world pause times."},
}

// RuntimeSnapshot is one point-in-time Go runtime reading: the GC/heap
// state a miss dossier embeds to answer "did a GC pause land in the
// window?" — the jitter source the paper's pinned-pthread testbed does not
// have. Field order and names are part of the dossier schema.
type RuntimeSnapshot struct {
	// HeapObjectsBytes is the live heap object footprint.
	HeapObjectsBytes uint64 `json:"heap_objects_bytes"`
	// GCCycles counts completed GC cycles since process start.
	GCCycles uint64 `json:"gc_cycles"`
	// Goroutines is the live goroutine count.
	Goroutines uint64 `json:"goroutines"`
	// GCPauseP50S / GCPauseP99S are stop-the-world pause quantiles in
	// seconds, over the process-lifetime pause distribution.
	GCPauseP50S float64 `json:"gc_pause_p50_s"`
	GCPauseP99S float64 `json:"gc_pause_p99_s"`
}

// CaptureRuntime reads the runtime metrics behind the rtopex_go_* series
// into one snapshot. It is cheap enough to call per miss dossier, not per
// event.
func CaptureRuntime() RuntimeSnapshot {
	samples := readRuntime()
	var snap RuntimeSnapshot
	for i, s := range samples {
		switch runtimeSamples[i].src {
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.HeapObjectsBytes = s.Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.GCCycles = s.Value.Uint64()
			}
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == metrics.KindUint64 {
				snap.Goroutines = s.Value.Uint64()
			}
		case "/gc/pauses:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				snap.GCPauseP50S = histQuantile(h, 0.5)
				snap.GCPauseP99S = histQuantile(h, 0.99)
			}
		}
	}
	return snap
}

func readRuntime() []metrics.Sample {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.src
	}
	metrics.Read(samples)
	return samples
}

// SampleRuntime reads one round of Go runtime metrics into reg: heap bytes,
// GC cycles and goroutines as gauges, and the GC pause distribution as
// p50/p99 gauges (rtopex_go_gc_pause_seconds{q="0.5"} …).
func SampleRuntime(reg *Registry) {
	samples := readRuntime()
	for i, s := range samples {
		rs := runtimeSamples[i]
		switch s.Value.Kind() {
		case metrics.KindUint64:
			reg.SetHelp(rs.dst, rs.help)
			reg.Gauge(rs.dst).Set(float64(s.Value.Uint64()))
		case metrics.KindFloat64:
			reg.SetHelp(rs.dst, rs.help)
			reg.Gauge(rs.dst).Set(s.Value.Float64())
		case metrics.KindFloat64Histogram:
			reg.SetHelp(rs.dst, rs.help)
			h := s.Value.Float64Histogram()
			for _, q := range []float64{0.5, 0.99} {
				reg.Gauge(rs.dst, L("q", formatFloat(q))).Set(histQuantile(h, q))
			}
		default:
			// KindBad: metric absent on this Go version — skip.
		}
	}
}

// histQuantile pulls an approximate quantile out of a runtime
// Float64Histogram (bucket lower-bound convention; ±Inf edges clamped to
// the neighbouring finite bound).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			// Bucket i spans [Buckets[i], Buckets[i+1]).
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < -1e300 || lo != lo {
				lo = hi
			}
			if hi > 1e300 || hi != hi {
				hi = lo
			}
			return (lo + hi) / 2
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// RuntimeSampler periodically publishes the rtopex_go_* series into a
// registry. Every binary shares this one implementation; the flight
// recorder reads the same metrics through CaptureRuntime.
type RuntimeSampler struct {
	done chan struct{}
	once sync.Once
}

// StartRuntime samples the runtime into reg every interval until Stop. One
// immediate sample is taken before the ticker starts, so short runs still
// report.
func StartRuntime(reg *Registry, interval time.Duration) *RuntimeSampler {
	SampleRuntime(reg)
	s := &RuntimeSampler{done: make(chan struct{})}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-t.C:
				SampleRuntime(reg)
			}
		}
	}()
	return s
}

// Stop halts the sampler. Safe to call more than once.
func (s *RuntimeSampler) Stop() {
	s.once.Do(func() { close(s.done) })
}
