package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"rtopex/internal/flight"
	"rtopex/internal/harness"
	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/obs"
	"rtopex/internal/platform"
	"rtopex/internal/sched"
	"rtopex/internal/stats"
	"rtopex/internal/trace"
	"rtopex/internal/transport"
)

// simParams is the virtual-time workload: the paper's evaluation set-up
// (4 basestations, 8 cores, RT-OPEX over a 2-core partitioned map) under a
// jittery transport, so that preemptions and recomputes occur.
type simParams struct {
	basestations int
	subframes    int // per basestation, per pass
	cores        int
	rtt2, spread float64 // one-way transport: uniform rtt2 ± spread µs
	setups       int     // BuildWorkload calls per run; setup_s is their median
	ring         int     // sim-observed: trace ring capacity
}

var sim = simParams{basestations: 4, subframes: 10_000, cores: 8, rtt2: 550, spread: 120, setups: 15, ring: 4096}

func (p simParams) jobs() int { return p.basestations * p.subframes }

// uniformTransport is the benchmark's transport.Sampler: RTT/2 uniform in
// mean ± spread µs.
type uniformTransport struct{ mean, spread float64 }

func (u uniformTransport) Sample(r *stats.RNG) float64 {
	return u.mean + (r.Float64()-0.5)*2*u.spread
}

func (p simParams) build(seed uint64) (*sched.Workload, error) {
	return sched.BuildWorkload(sched.WorkloadConfig{
		Basestations: p.basestations, Subframes: p.subframes, Antennas: 2,
		Bandwidth: lte.BW10MHz, SNRdB: 30, Lm: 4,
		Params: model.PaperGPP, Jitter: model.DefaultJitter, IterLaw: model.DefaultIterationLaw,
		Profiles: trace.DefaultProfiles, FixedMCS: -1,
		Transport:      uniformTransport{p.rtt2, p.spread},
		ExpectedRTT2US: p.rtt2,
		Seed:           seed,
	})
}

// setup builds the workload p.setups times and keeps the last.
func (p simParams) setup(seed uint64, out *outcome) (*sched.Workload, error) {
	var w *sched.Workload
	ds := make([]float64, p.setups)
	for i := range ds {
		w = nil
		settle()
		t0 := time.Now()
		var err error
		if w, err = p.build(seed); err != nil {
			return nil, err
		}
		ds[i] = time.Since(t0).Seconds()
	}
	out.set("setup_s", median(ds))
	return w, nil
}

// simDigest is the simulated outcome of one pass, comparable with ==. Two
// passes over one workload must agree on it exactly; the sums stand in for
// the per-subframe vectors.
type simDigest struct {
	perBS                             string
	gaps, overruns, procs             int
	gapSum, overrunSum, procSum       float64
	fftTotal, fftMigrated             int
	decodeTotal, decodeMigrated       int
	batches, preemptions, recoveries  int
	txJobs, txMisses, jobs, missCount int
}

func digest(m *sched.Metrics) simDigest {
	sum := func(xs []float64) (s float64) {
		for _, x := range xs {
			s += x
		}
		return s
	}
	return simDigest{
		perBS: fmt.Sprint(m.PerBS),
		gaps:  len(m.Gaps), overruns: len(m.Overruns), procs: len(m.ProcTimes),
		gapSum: sum(m.Gaps), overrunSum: sum(m.Overruns), procSum: sum(m.ProcTimes),
		fftTotal: m.FFTSubtasksTotal, fftMigrated: m.FFTSubtasksMigrated,
		decodeTotal: m.DecodeSubtasksTotal, decodeMigrated: m.DecodeSubtasksMigrated,
		batches: m.MigrationBatches, preemptions: m.Preemptions, recoveries: m.Recoveries,
		txJobs: m.TxJobs, txMisses: m.TxMisses, jobs: m.Jobs(), missCount: m.Misses(),
	}
}

// conserved checks the invariants every pass must keep, whatever the
// scheduler decides: every job is accounted for exactly once and no more is
// migrated than exists.
func (p simParams) conserved(m *sched.Metrics) bool {
	if m.Jobs() != p.jobs() || len(m.PerBS) != p.basestations {
		return false
	}
	for _, b := range m.PerBS {
		if b.Jobs != p.subframes || b.ACK+b.Dropped+b.Late+b.DecodeFail != b.Jobs {
			return false
		}
	}
	return m.FFTSubtasksMigrated <= m.FFTSubtasksTotal && m.DecodeSubtasksMigrated <= m.DecodeSubtasksTotal
}

// simPasses times repeated passes of one simulation over one workload.
type simPasses struct {
	p       simParams
	first   *sched.Metrics
	firstD  simDigest
	passUS  []float64 // host µs per simulated subframe, one sample per pass
	mallocs []float64 // heap allocations per simulated subframe, per pass
	failed  int       // passes that broke an invariant or differed from the first
	cpu     time.Duration
}

// pass runs once and records the pass. The heap count is read outside the
// timed call.
func (s *simPasses) pass(run func() (*sched.Metrics, error)) (time.Time, time.Time, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	t0 := time.Now()
	m, err := run()
	t1 := time.Now()
	s.cpu += cpuTime() - cpu0
	if err != nil {
		return t0, t1, err
	}
	runtime.ReadMemStats(&m1)
	jobs := float64(s.p.jobs())
	s.passUS = append(s.passUS, us(t1.Sub(t0))/jobs)
	s.mallocs = append(s.mallocs, float64(m1.Mallocs-m0.Mallocs)/jobs)
	d := digest(m)
	if s.first == nil {
		s.first, s.firstD = m, d
	}
	if !s.p.conserved(m) || d != s.firstD {
		s.failed++
	}
	return t0, t1, nil
}

// loop runs one untimed warm-up pass, then passes for d.
func (s *simPasses) loop(d time.Duration, run func() (*sched.Metrics, error), onPass func(i int, t0, t1 time.Time)) error {
	if _, err := run(); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		t0, t1, err := s.pass(run)
		if err != nil {
			return err
		}
		if onPass != nil {
			onPass(i, t0, t1)
		}
	}
	return nil
}

// report fills the end-to-end metrics. One operation is one simulated
// subframe; the timing sample is one pass.
func (s *simPasses) report(out *outcome) {
	jobs := s.p.jobs()
	out.ops = len(s.passUS) * jobs
	out.failed += s.failed * jobs
	sortedUS := sorted(s.passUS)
	out.set("ops_per_s", 1e6/quantile(sortedUS, 0.5))
	out.set("op_us_p50", quantile(sortedUS, 0.5))
	out.set("op_us_p90", quantile(sortedUS, 0.9))
	out.set("cpu_us_per_op", us(s.cpu)/float64(out.ops))
	out.note("%d passes of %d simulated subframes; %.2f heap allocations per simulated subframe",
		len(s.passUS), jobs, median(s.mallocs))
}

// checkAgainstPartitioned is the cross-scheduler invariant: on one job set
// RT-OPEX may not miss more deadlines than the partitioned schedule it
// extends. A violation fails every operation of the run.
func (p simParams) checkAgainstPartitioned(w *sched.Workload, rtopex *sched.Metrics, out *outcome) error {
	part, err := sched.RunConfigured(w, sched.NewPartitioned(2), sched.RunConfig{Cores: p.cores})
	if err != nil {
		return err
	}
	if rtopex.Misses() > part.Misses() || !p.conserved(part) {
		out.failed = out.ops
		out.note("INVARIANT BROKEN: rt-opex missed %d, partitioned %d", rtopex.Misses(), part.Misses())
	}
	return nil
}

func (p simParams) bare(w *sched.Workload, rc sched.RunConfig) func() (*sched.Metrics, error) {
	rc.Cores = p.cores
	return func() (*sched.Metrics, error) { return sched.RunConfigured(w, sched.NewRTOPEX(2), rc) }
}

func (p simParams) runRTOPEX(e *env) (*outcome, error) {
	out := newOutcome()
	w, err := p.setup(e.seed, out)
	if err != nil {
		return nil, err
	}
	if e.traced {
		return out, p.tracedRTOPEX(e, w, out)
	}
	s := &simPasses{p: p}
	if err := s.loop(e.duration(1), p.bare(w, sched.RunConfig{}), nil); err != nil {
		return nil, err
	}
	s.report(out)
	return out, p.checkAgainstPartitioned(w, s.first, out)
}

// timeScheduler runs a scheduler for d and reports ns and heap allocations
// per simulated subframe plus the last pass's metrics.
func (p simParams) timeScheduler(e *env, name string, d time.Duration, w *sched.Workload, mk func() sched.Scheduler, out *outcome) (*sched.Metrics, error) {
	s := &simPasses{p: p}
	err := s.loop(d, func() (*sched.Metrics, error) {
		return sched.RunConfigured(w, mk(), sched.RunConfig{Cores: p.cores})
	}, func(i int, t0, t1 time.Time) { e.spans.add("sched."+name+".pass", i, -1, t0, t1) })
	if err != nil {
		return nil, err
	}
	out.set("sched."+name+"_ns_per_subframe", 1e3*median(s.passUS))
	out.set("sched."+name+"_allocs_per_subframe", median(s.mallocs))
	out.ops += len(s.passUS) * p.jobs()
	out.failed += s.failed * p.jobs()
	return s.first, nil
}

// tracedRTOPEX is the per-layer run of sim-rtopex: bare passes for the base,
// passes with harness.EngineStats hooked into the engine, the other two
// schedulers on the same job set, the engine alone and the generators alone.
func (p simParams) tracedRTOPEX(e *env, w *sched.Workload, out *outcome) error {
	rt, err := p.timeScheduler(e, "rtopex", e.duration(0.25), w, func() sched.Scheduler { return sched.NewRTOPEX(2) }, out)
	if err != nil {
		return err
	}
	base := out.metrics["sched.rtopex_ns_per_subframe"]
	out.set("sim.allocs_per_subframe", out.metrics["sched.rtopex_allocs_per_subframe"])

	var es harness.EngineStats
	hooked := &simPasses{p: p}
	err = hooked.loop(e.duration(0.25), func() (*sched.Metrics, error) {
		es = harness.EngineStats{}
		return p.bare(w, sched.RunConfig{EngineHook: &es})()
	}, func(i int, t0, t1 time.Time) { e.spans.add("platform.hooked_pass", i, -1, t0, t1) })
	if err != nil {
		return err
	}
	out.ops += len(hooked.passUS) * p.jobs()
	out.failed += hooked.failed * p.jobs()
	out.set("platform.events_per_subframe", float64(es.Executed)/float64(p.jobs()))
	out.set("bench.trace_overhead_ratio", ratio(1e3*median(hooked.passUS), base))

	part, err := p.timeScheduler(e, "partitioned", e.duration(0.12), w, func() sched.Scheduler { return sched.NewPartitioned(2) }, out)
	if err != nil {
		return err
	}
	glob, err := p.timeScheduler(e, "global", e.duration(0.12), w, func() sched.Scheduler { return sched.NewGlobal() }, out)
	if err != nil {
		return err
	}
	if rt.Misses() > part.Misses() {
		out.failed = out.ops
	}
	out.set("sched.partitioned_missed", float64(part.Misses()))
	out.set("sched.global_missed", float64(glob.Misses()))
	out.set("sched.rtopex_missed", float64(rt.Misses()))
	out.set("sched.rtopex_fft_migrated_frac", rt.MigratedFFTFraction())
	out.set("sched.rtopex_decode_migrated_frac", rt.MigratedDecodeFraction())
	out.set("sched.rtopex_preemptions", float64(rt.Preemptions))
	out.set("sched.rtopex_recoveries", float64(rt.Recoveries))
	out.set("sched.rtopex_gap_us_p50", median(rt.Gaps))

	engineAlone(e, out)
	out.set("sched.build_workload_ns_per_subframe", 1e9*out.metrics["setup_s"]/float64(p.jobs()))
	generatorsAlone(e, out)
	return nil
}

// engineAlone times the event engine with nothing attached: n no-op events
// scheduled, then run.
func engineAlone(e *env, out *outcome) {
	const n = 200_000
	noop := func() {}
	var perEvent, allocs []float64
	for rep := 0; rep < 5; rep++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		eng := platform.New()
		for i := 0; i < n; i++ {
			eng.At(float64(i%1000), noop)
		}
		eng.Run()
		t1 := time.Now()
		runtime.ReadMemStats(&m1)
		e.spans.add("platform.engine_alone", rep, -1, t0, t1)
		perEvent = append(perEvent, t1.Sub(t0).Seconds()/n)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/n)
	}
	out.set("platform.events_per_s", 1/median(perEvent))
	out.set("platform.allocs_per_event", median(allocs))
}

// generatorsAlone times the input generators BuildWorkload draws from.
func generatorsAlone(e *env, out *outcome) {
	const n = 200_000
	perCall := func(name string, fn func()) float64 {
		var ds []float64
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			fn()
			t1 := time.Now()
			e.spans.add(name, rep, -1, t0, t1)
			ds = append(ds, float64(t1.Sub(t0))/n)
		}
		return median(ds)
	}
	r := stats.NewRNG(e.seed)
	var sink float64
	out.set("trace.generate_ns_per_sample", perCall("trace.generate", func() {
		sink += trace.NewGenerator(trace.DefaultProfiles[3], r.Uint64()).Generate(n)[n-1]
	}))
	cloud := transport.NewCloud(10)
	out.set("transport.sample_ns", perCall("transport.sample", func() {
		for i := 0; i < n; i++ {
			sink += cloud.Sample(r)
		}
	}))
	out.set("model.sample_ns", perCall("model.sample", func() {
		for i := 0; i < n; i++ {
			sink += model.DefaultJitter.Sample(r)
		}
	}))
	if sink == 0 {
		out.note("generators returned only zeros")
	}
}

// observer is the plane sim-observed arms around every pass: a registry, a
// flight recorder spooling to disk, and a history scraper evaluating one
// miss-rate objective.
type observer struct {
	reg     *obs.Registry
	rec     *flight.Recorder
	scraper *obs.Scraper
	now     time.Time
	dir     string
}

func newObserver() (*observer, error) {
	dir, err := scratchDir("sim-spool")
	if err != nil {
		return nil, err
	}
	spool, err := flight.NewSpool(flight.SpoolConfig{Dir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	o := &observer{reg: obs.NewRegistry(), now: time.UnixMilli(1_700_000_000_000), dir: dir}
	o.rec = flight.New(flight.Config{Spool: spool, Registry: o.reg})
	label := []obs.Label{obs.L("sched", "rt-opex")}
	objective, err := obs.ParseObjective(fmt.Sprintf("miss_rate: %s / %s <= 0.1%% over 1m",
		obs.SeriesID("rtopex_misses_total", label), obs.SeriesID("rtopex_jobs_total", label)))
	if err != nil {
		o.close()
		return nil, err
	}
	db := obs.NewTSDB(obs.TSDBConfig{Step: time.Second, Retention: time.Minute})
	o.scraper = obs.NewScraper(obs.ScraperConfig{
		DB: db, Snapshot: o.reg.Snapshot, SLO: obs.NewSLOEngine(db, objective),
		Now: func() time.Time { return o.now },
	})
	return o, nil
}

// tick is one history step: scrape, evaluate, advance the clock a second.
func (o *observer) tick() {
	o.scraper.Tick()
	o.now = o.now.Add(time.Second)
}

func (o *observer) close() {
	o.rec.Close()
	os.RemoveAll(o.dir)
}

func (p simParams) runObserved(e *env) (*outcome, error) {
	out := newOutcome()
	w, err := p.setup(e.seed, out)
	if err != nil {
		return nil, err
	}
	o, err := newObserver()
	if err != nil {
		return nil, err
	}
	defer o.close()
	observed := func() (*sched.Metrics, error) {
		res, err := harness.TracedRunObserved(w, sched.NewRTOPEX(2), p.cores, p.ring, o.reg, o.rec)
		if err != nil {
			return nil, err
		}
		o.tick()
		return res.Metrics, nil
	}
	if e.traced {
		return out, p.tracedObserved(e, w, o, observed, out)
	}
	s := &simPasses{p: p}
	if err := s.loop(e.duration(1), observed, nil); err != nil {
		return nil, err
	}
	s.report(out)
	return out, p.checkAgainstPartitioned(w, s.first, out)
}

// sliceSink keeps a run's whole event stream for replay.
type sliceSink struct{ events []trace.Event }

func (s *sliceSink) Enabled() bool      { return true }
func (s *sliceSink) Emit(e trace.Event) { s.events = append(s.events, e) }

// tracedObserved is the per-layer run of sim-observed: observed passes with
// the run and the scrape timed apart, bare passes for the armed ratio, and
// the captured event stream replayed into a fresh accountant and a fresh
// flight tap to time each alone.
func (p simParams) tracedObserved(e *env, w *sched.Workload, o *observer, observed func() (*sched.Metrics, error), out *outcome) error {
	base := &simPasses{p: p}
	if err := base.loop(e.duration(0.3), observed, nil); err != nil {
		return err
	}
	var scrapeUS []float64
	split := &simPasses{p: p}
	err := split.loop(e.duration(0.3), func() (*sched.Metrics, error) {
		t0 := time.Now()
		res, err := harness.TracedRunObserved(w, sched.NewRTOPEX(2), p.cores, p.ring, o.reg, o.rec)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		o.tick()
		t2 := time.Now()
		op := len(scrapeUS)
		root := e.spans.add("sim.observed_pass", op, -1, t0, t2)
		e.spans.add("harness.traced_run_observed", op, root, t0, t1)
		e.spans.add("obs.scrape_evaluate", op, root, t1, t2)
		scrapeUS = append(scrapeUS, us(t2.Sub(t1)))
		return res.Metrics, nil
	}, nil)
	if err != nil {
		return err
	}
	bare := &simPasses{p: p}
	if err := bare.loop(e.duration(0.2), p.bare(w, sched.RunConfig{}), func(i int, t0, t1 time.Time) {
		e.spans.add("sched.rtopex.pass", i, -1, t0, t1)
	}); err != nil {
		return err
	}
	for _, s := range []*simPasses{base, split, bare} {
		out.ops += len(s.passUS) * p.jobs()
		out.failed += s.failed * p.jobs()
	}
	out.set("sim.allocs_per_subframe", median(base.mallocs))
	out.set("obs.armed_ratio", ratio(median(bare.passUS), median(base.passUS)))
	out.set("bench.trace_overhead_ratio", ratio(median(split.passUS), median(base.passUS)))
	out.set("obs.scrape_evaluate_us", median(scrapeUS))
	out.set("flight.triggers", float64(o.rec.Triggers()))
	out.set("flight.dossiers_written", float64(o.rec.Written()))
	out.set("flight.suppressed", float64(o.rec.Suppressed()))

	log := &sliceSink{}
	if _, err := sched.RunConfigured(w, sched.NewRTOPEX(2), sched.RunConfig{Cores: p.cores, Tracer: log}); err != nil {
		return err
	}
	n := float64(len(log.events))
	out.set("trace.events_per_subframe", n/float64(p.jobs()))
	replay := func(name string, mk func() (trace.Tracer, func())) float64 {
		var ds []float64
		for rep := 0; rep < 3; rep++ {
			sink, done := mk()
			t0 := time.Now()
			for _, ev := range log.events {
				sink.Emit(ev)
			}
			t1 := time.Now()
			done()
			e.spans.add(name, rep, -1, t0, t1)
			ds = append(ds, float64(t1.Sub(t0))/n)
		}
		return median(ds)
	}
	out.set("obs.accountant_ns_per_event", replay("obs.accountant_replay", func() (trace.Tracer, func()) {
		return obs.NewCoreAccountant(), func() {}
	}))
	// The replay tap belongs to a recorder of its own, without a spool and
	// capped at one capture, so the replay times the per-event path (ring
	// store and trigger classification), not dossier writes.
	quiet := flight.New(flight.Config{MaxDossiers: 1})
	defer quiet.Close()
	out.set("flight.tap_ns_per_event", replay("flight.tap_replay", func() (trace.Tracer, func()) {
		tap := quiet.NewTap(flight.TapConfig{Label: "replay", BudgetUS: sched.RxBudgetUS})
		return tap, tap.Close
	}))
	return nil
}

func init() {
	register("sim-rtopex", func(e *env) (*outcome, error) { return sim.runRTOPEX(e) })
	register("sim-observed", func(e *env) (*outcome, error) { return sim.runObserved(e) })
}
