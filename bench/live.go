package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"rtopex/internal/flight"
	"rtopex/internal/obs"
	"rtopex/internal/realtime"
	"rtopex/internal/stats"
	"rtopex/internal/trace"
)

// liveParams is the open-loop workload: realtime.Run feeds one basestation's
// subframes to two partitioned cores on the wall clock.
type liveParams struct {
	dilation float64 // period = dilation ms, budget = 2 × period
	antennas int
	snrDB    float64
	segments int // realtime.Run calls per run; setup_s is the median of their set-ups
	warm     int // subframes at the head of each segment left out of every figure
}

// Dilation 2 offers 500 subframes/s, about 35 % busy on each of the two
// worker threads of the 2-core host; the heavy-cell profile spreads the
// load over many MCS, as production traffic does.
var live = liveParams{dilation: 2, antennas: 2, snrDB: 30, segments: 5, warm: 250}

func (p liveParams) periodUS() float64 { return p.dilation * 1000 }

// eventSink is the benchmark-owned trace sink: it appends to a preallocated
// slice (realtime wraps it in trace.Locked) and notes when the first event
// arrived, which is the instant Run's own set-up ended and the feeder's
// clock started.
type eventSink struct {
	events   []trace.Event
	first    time.Time
	firstCPU time.Duration
}

func (s *eventSink) Enabled() bool { return true }

func (s *eventSink) Emit(e trace.Event) {
	if len(s.events) == 0 {
		s.first = time.Now()
		s.firstCPU = cpuTime()
	}
	s.events = append(s.events, e)
}

// subframeTimes is what the event stream says about one released subframe,
// in µs since the feeder epoch.
type subframeTimes struct {
	due      float64 // EvArrive: j × period, when the subframe was due
	start    float64 // EvStart
	finish   float64 // EvFinish
	phase    [4]float64
	phases   int
	released bool
	started  bool
	finished bool
	dropped  string // EvDrop detail
	outcome  string // EvFinish detail
}

// liveSegment is one realtime.Run with everything measured from outside it.
type liveSegment struct {
	setup  time.Duration // Run call → first event
	cpu    time.Duration // first event → Run return
	frames []subframeTimes
	stats  *realtime.Stats
}

// plane is the observation plane cmd/livebench arms; nil in end-to-end runs.
type plane struct {
	reg  *obs.Registry
	acct *obs.CoreAccountant
	rec  *flight.Recorder
}

func (p liveParams) segment(seed uint64, subframes int, pl *plane) (*liveSegment, error) {
	sink := &eventSink{events: make([]trace.Event, 0, 8*subframes)}
	cfg := realtime.Config{
		Basestations: 1, CoresPerBS: 2, Subframes: subframes,
		Antennas: p.antennas, SNRdB: p.snrDB,
		MCS: -1, Profiles: trace.DefaultProfiles[3:],
		Dilation: p.dilation, Seed: seed,
		Tracer: sink,
	}
	if pl != nil {
		cfg.Tracer = trace.Tee(sink, pl.acct)
		cfg.Obs = pl.reg
		cfg.Flight = pl.rec
	}
	t0 := time.Now()
	st, err := realtime.Run(cfg)
	cpu1 := cpuTime()
	if err != nil {
		return nil, err
	}
	if len(sink.events) == 0 {
		return nil, fmt.Errorf("realtime.Run emitted no events")
	}
	seg := &liveSegment{
		setup: sink.first.Sub(t0), cpu: cpu1 - sink.firstCPU,
		frames: make([]subframeTimes, subframes), stats: st,
	}
	for _, ev := range sink.events {
		if ev.Subframe < 0 || ev.Subframe >= subframes {
			continue
		}
		f := &seg.frames[ev.Subframe]
		switch ev.Event {
		case trace.EvArrive:
			f.due, f.released = ev.Time, true
		case trace.EvStart:
			f.start, f.started = ev.Time, true
		case trace.EvPhase:
			if f.phases < len(f.phase) {
				f.phase[f.phases] = ev.Time
				f.phases++
			}
		case trace.EvFinish:
			f.finish, f.finished, f.outcome = ev.Time, true, ev.Detail
		case trace.EvDrop:
			f.dropped = ev.Detail
		}
	}
	return seg, nil
}

// liveTally accumulates the measured (post-warm-up) subframes of a run.
type liveTally struct {
	latencyUS []float64 // due → finish; +Inf for a subframe that was dropped
	queueUS   []float64 // due → start
	procUS    []float64 // start → finish
	stageUS   map[string][]float64
	lateUS    []float64
	released  int
	completed int
	late      int
	queueFull int
	failed    int // decode failures + rx-unavailable drops
	cpu       time.Duration
	processed int // subframes whose CPU time `cpu` contains (warm-up included)
}

func (p liveParams) tally(t *liveTally, seg *liveSegment, spans *spanLog, epoch time.Time) {
	if t.stageUS == nil {
		t.stageUS = map[string][]float64{}
	}
	budget := 2 * p.periodUS()
	t.cpu += seg.cpu
	t.processed += seg.stats.Subframes - seg.stats.Dropped
	stageNames := [...]string{"fft", "chest", "demod", "decode"}
	at := func(usSinceEpoch float64) time.Time {
		return epoch.Add(time.Duration(usSinceEpoch * 1e3))
	}
	for j := p.warm; j < len(seg.frames); j++ {
		f := &seg.frames[j]
		if !f.released {
			continue
		}
		t.released++
		switch {
		case f.finished && f.started:
			t.completed++
			lat := f.finish - f.due
			t.latencyUS = append(t.latencyUS, lat)
			t.queueUS = append(t.queueUS, f.start-f.due)
			t.procUS = append(t.procUS, f.finish-f.start)
			proc := -1
			if spans != nil {
				root := spans.add("realtime.subframe", j, -1, at(f.due), at(f.finish))
				spans.add("realtime.queue", j, root, at(f.due), at(f.start))
				proc = spans.add("realtime.proc", j, root, at(f.start), at(f.finish))
			}
			for i := 0; i < f.phases; i++ {
				end := f.finish
				if i+1 < f.phases {
					end = f.phase[i+1]
				}
				t.stageUS[stageNames[i]] = append(t.stageUS[stageNames[i]], end-f.phase[i])
				if spans != nil {
					spans.add("realtime."+stageNames[i], j, proc, at(f.phase[i]), at(end))
				}
			}
			if lat > budget {
				t.late++
				t.lateUS = append(t.lateUS, lat-budget)
			}
			if f.outcome == "decodefail" {
				t.failed++
			}
		default:
			// Released but never finished: a drop counts as infinite
			// latency, so it lands beyond every percentile it outnumbers.
			t.latencyUS = append(t.latencyUS, math.Inf(1))
			if f.dropped == "queue-full" {
				t.queueFull++
			} else {
				t.failed++
			}
		}
	}
}

// overload is the share of measured subframes that missed the deadline or
// were dropped on a full queue; above maxOverload the offered rate was not
// sustained and latency at it means nothing.
func (t *liveTally) overload() float64 {
	return ratio(float64(t.late+t.queueFull), float64(t.released))
}

const maxOverload = 0.10

func (p liveParams) run(e *env) (*outcome, error) {
	out := newOutcome()
	rng := stats.NewRNG(e.seed)
	if e.traced {
		return out, p.traced(e, rng, out)
	}
	perSegment := p.warm + int(e.seconds/float64(p.segments)*1e6/p.periodUS())
	var t liveTally
	setups := make([]float64, p.segments)
	for i := range setups {
		settle() // the previous segment's arena and event log
		seg, err := p.segment(rng.Uint64(), perSegment, nil)
		if err != nil {
			return nil, err
		}
		setups[i] = seg.setup.Seconds()
		p.tally(&t, seg, nil, time.Time{})
	}
	lat := sorted(t.latencyUS)
	measured := float64(t.released) * p.periodUS() / 1e6 // seconds the measured subframes were offered over
	out.ops, out.failed = t.released, t.failed
	out.set("setup_s", median(setups))
	out.set("ops_per_s", float64(t.completed)/measured)
	out.set("op_us_p50", quantile(lat, 0.5))
	out.set("op_us_p90", quantile(lat, 0.9))
	out.set("cpu_us_per_op", us(t.cpu)/float64(t.processed))
	p.describe(out, &t)
	return out, nil
}

// describe states the open loop's terms: offered and achieved rate, and the
// rule that voids the run.
func (p liveParams) describe(out *outcome, t *liveTally) {
	out.note("open loop: offered %.1f subframes/s, completed %d of %d released; latency runs from the due time j × period",
		1e6/p.periodUS(), t.completed, t.released)
	out.note("latency p99 %.0f µs: shown, not a metric, because it follows how many of the host's stalls the run caught",
		quantile(sorted(t.latencyUS), 0.99))
	out.note("deadline misses %d, queue-full drops %d: %.2f%% of released (run is invalid above %.0f%%)",
		t.late, t.queueFull, 100*t.overload(), 100*maxOverload)
	if t.overload() > maxOverload {
		out.invalid = fmt.Sprintf("%.1f%% of subframes missed the deadline or were dropped; the offered rate was not sustained", 100*t.overload())
	}
}

// traced runs one segment as the end-to-end run does and one with the plane
// cmd/livebench arms (registry, core accountant, flight recorder), and
// rebuilds per-subframe spans from the armed segment's event stream.
func (p liveParams) traced(e *env, rng *stats.RNG, out *outcome) error {
	subframes := func(share float64) int {
		return p.warm + int(e.seconds*share*1e6/p.periodUS())
	}
	var base liveTally
	seg, err := p.segment(rng.Uint64(), subframes(0.4), nil)
	if err != nil {
		return err
	}
	p.tally(&base, seg, nil, time.Time{})

	dir, err := scratchDir("live-spool")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	spool, err := flight.NewSpool(flight.SpoolConfig{Dir: dir})
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	pl := &plane{reg: reg, acct: obs.NewCoreAccountant(), rec: flight.New(flight.Config{Spool: spool, Registry: reg})}
	epoch := time.Now()
	seg, err = p.segment(rng.Uint64(), subframes(0.6), pl)
	pl.rec.Close()
	if err != nil {
		return err
	}
	var t liveTally
	p.tally(&t, seg, e.spans, epoch.Add(seg.setup))

	out.ops, out.failed = base.released+t.released, base.failed+t.failed
	q, pr := sorted(t.queueUS), sorted(t.procUS)
	out.set("realtime.offered_per_s", 1e6/p.periodUS())
	out.set("realtime.queue_wait_us_p50", quantile(q, 0.5))
	out.set("realtime.queue_wait_us_p90", quantile(q, 0.9))
	out.set("realtime.proc_us_p50", quantile(pr, 0.5))
	out.set("realtime.proc_us_p90", quantile(pr, 0.9))
	out.set("realtime.fft_us_p50", median(t.stageUS["fft"]))
	out.set("realtime.demod_us_p50", median(t.stageUS["chest"])+median(t.stageUS["demod"]))
	out.set("realtime.decode_us_p50", median(t.stageUS["decode"]))
	out.set("realtime.miss_rate", ratio(float64(t.late), float64(t.released)))
	out.set("realtime.overrun_drop_rate", ratio(float64(t.queueFull), float64(t.released)))
	out.set("realtime.late_us_p50", median(t.lateUS))
	var busy float64
	reports := pl.acct.Reports(2, 0)
	for _, r := range reports {
		busy += r.Busy / float64(len(reports))
	}
	out.set("realtime.core_busy_frac", busy)

	obs.SampleRuntime(reg)
	snap := reg.Snapshot()
	hits, _ := snap.CounterValue("rtopex_phy_arena_hits_total")
	misses, _ := snap.CounterValue("rtopex_phy_arena_misses_total")
	out.set("phy.arena_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	out.set("obs.go_gc_cycles", reg.Gauge("rtopex_go_gc_cycles_total").Value())
	out.set("obs.go_gc_pause_us_p99", 1e6*reg.Gauge("rtopex_go_gc_pause_seconds", obs.L("q", "0.99")).Value())

	planeRatio := ratio(median(t.latencyUS), median(base.latencyUS))
	out.set("realtime.plane_latency_ratio", planeRatio)
	out.set("bench.trace_overhead_ratio", planeRatio)
	p.describe(out, &t)
	return nil
}

func init() {
	register("live-partitioned", func(e *env) (*outcome, error) { return live.run(e) })
}
