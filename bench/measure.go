package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// outDir receives everything the benchmark writes: span files and the
// scratch stores and spools of the workloads. It sits inside the checkout
// because the benchmark may write nowhere else.
const outDir = "bench/out"

// quantile is the nearest-rank quantile of an ascending slice. Nearest rank
// (not interpolation) keeps a vector that ends in +Inf — dropped subframes —
// well defined: the result is +Inf exactly when the rank lands on a drop.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// ratio is a/b with an unexercised denominator reported as 0, the value
// every per-layer metric has when its layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// cpuTime is the process's user + system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// settle collects what a discarded set-up left behind. Set-up is repeated
// only so that setup_s can be a median; without this, peak_rss_mb would
// depend on when the collector happened to free the earlier copies.
func settle() { runtime.GC() }

// timeMedian runs fn n times and returns the median duration of one call.
// fn is a layer call short enough (microseconds) that one sample is one
// call; the median drops the samples a VM stall landed on.
func timeMedian(n int, fn func()) time.Duration {
	ds := make([]float64, n)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds))
}

// span is one timed interval at a layer boundary. Spans of one operation
// (a subframe, a simulator pass, a sweep unit) share Op; Parent is the ID of
// the enclosing span, -1 for the operation's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the span file; later spans are counted, not kept.
const maxSpans = 400_000

// spanLog keeps spans in memory until the run ends. It is not safe for
// concurrent use; the one concurrent producer (sweep units) locks around it.
type spanLog struct {
	epoch   time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// add records a span and returns its ID (-1 once the log is full).
func (l *spanLog) add(name string, op, parent int, start, end time.Time) int {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	id := len(l.spans)
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds(),
	})
	return id
}

// finish sets the end of a span whose children had to be recorded first.
func (l *spanLog) finish(id int, end time.Time) {
	if id >= 0 {
		l.spans[id].End = end.Sub(l.epoch).Nanoseconds()
	}
}

// write stores the spans as bench/out/trace-<workload>.json.
func (l *spanLog) write(workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	doc := struct {
		Workload string `json:"workload"`
		Dropped  int    `json:"dropped_spans"`
		Spans    []span `json:"spans"`
	}{workload, l.dropped, l.spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), b, 0o644)
}

// scratchDir makes a fresh directory under bench/out for a workload's
// stores and spools; the caller removes it.
func scratchDir(prefix string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, prefix+"-")
}
