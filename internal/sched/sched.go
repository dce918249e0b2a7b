// Package sched implements the C-RAN subframe schedulers the paper
// evaluates — partitioned (§3.1.1), global EDF (§3.1.2) and RT-OPEX (§3.2)
// — on top of the discrete-event platform engine. Task durations come from
// the calibrated processing-time model (Eq. 1); arrivals come from cellular
// load traces and a transport-latency model, so a simulation run reproduces
// the end-to-end deadline arithmetic of Eq. (2):
//
//	Trxproc + RTT/2 ≤ 2 ms
//
// A Job is one subframe decoding task; a scheduler decides which core runs
// it (and, for RT-OPEX, which idle cores execute migrated subtasks). All
// times are absolute simulation microseconds.
package sched

import (
	"fmt"
	"sync"

	"rtopex/internal/flight"
	"rtopex/internal/lte"
	"rtopex/internal/model"
	"rtopex/internal/obs"
	"rtopex/internal/platform"
	"rtopex/internal/stats"
	"rtopex/internal/trace"
	"rtopex/internal/transport"
)

// RxBudgetUS is the receive-processing budget of §2.4: of the 3 ms HARQ
// loop, 1 ms is reserved for Tx processing, so Trxproc + RTT/2 ≤ 2 ms.
const RxBudgetUS = 2000

// Job is one subframe decoding task as seen by the compute node.
type Job struct {
	BS    int // basestation id
	Index int // subframe index j

	MCS       int
	L         int  // turbo iterations the decode will take (≤ Lm)
	Decodable bool // whether the CRC would pass after L iterations

	Gen      float64 // over-the-air reception time at the radio (µs)
	Arrival  float64 // arrival at the compute node: Gen + RTT/2
	Deadline float64 // Gen + RxBudgetUS

	Tasks model.TaskTimes // serial task durations from the model

	FFTSubtasks     int     // N × 14
	FFTSubtaskUS    float64 // FFT task time / FFTSubtasks
	DecodeSubtasks  int     // turbo code blocks C
	DecodeSubtaskUS float64 // decode task time / C

	JitterUS float64 // platform error E for this subframe
}

// WorkloadConfig describes one experiment's workload.
type WorkloadConfig struct {
	Basestations int
	Subframes    int // per basestation
	Antennas     int
	Bandwidth    lte.Bandwidth
	SNRdB        float64
	Lm           int // turbo iteration cap (paper: 4)

	Params  model.Params
	Jitter  model.Jitter
	IterLaw model.IterationLaw

	// Profiles drive per-BS MCS variation; FixedMCS >= 0 overrides them
	// with a constant MCS (the Fig. 17 load sweep).
	Profiles []trace.Profile
	FixedMCS int

	// PerBSAntennas optionally overrides Antennas per basestation — the
	// heterogeneous-deployment scenario of §5.D (e.g. a cellular-IoT cell
	// next to a macro cell). Entries of 0 fall back to Antennas.
	PerBSAntennas []int

	Transport transport.Sampler
	// ExpectedRTT2US is the transport latency the schedulers assume when
	// predicting core idle windows (RT-OPEX's fck). With a FixedPath it
	// equals the fixed delay.
	ExpectedRTT2US float64

	Seed uint64
}

func (c WorkloadConfig) validate() error {
	if c.Basestations < 1 || c.Subframes < 1 {
		return fmt.Errorf("sched: need ≥1 basestation and subframe, got %d×%d", c.Basestations, c.Subframes)
	}
	if c.Antennas < 1 {
		return fmt.Errorf("sched: need ≥1 antenna")
	}
	if c.Lm < 1 {
		return fmt.Errorf("sched: Lm must be ≥1")
	}
	if c.Transport == nil {
		return fmt.Errorf("sched: no transport sampler")
	}
	if c.FixedMCS < 0 && len(c.Profiles) < c.Basestations {
		return fmt.Errorf("sched: %d profiles for %d basestations", len(c.Profiles), c.Basestations)
	}
	if c.FixedMCS > lte.MaxMCS {
		return fmt.Errorf("sched: fixed MCS %d out of range", c.FixedMCS)
	}
	if len(c.PerBSAntennas) > 0 && len(c.PerBSAntennas) < c.Basestations {
		return fmt.Errorf("sched: %d per-BS antenna entries for %d basestations",
			len(c.PerBSAntennas), c.Basestations)
	}
	for _, n := range c.PerBSAntennas {
		if n < 0 {
			return fmt.Errorf("sched: negative antenna count")
		}
	}
	return nil
}

// antennasFor resolves the antenna count of one basestation.
func (c WorkloadConfig) antennasFor(bs int) int {
	if bs < len(c.PerBSAntennas) && c.PerBSAntennas[bs] > 0 {
		return c.PerBSAntennas[bs]
	}
	return c.Antennas
}

// Workload is the fully materialized job set of one run: identical inputs
// are handed to every scheduler under comparison, so differences in
// outcomes are attributable to scheduling alone. The first run fixes the
// order in which the jobs arrive, so a job's Arrival must not change once
// the workload has run.
type Workload struct {
	Cfg  WorkloadConfig
	Jobs [][]Job // [bs][subframe]

	arrivalOnce sync.Once
	arrivals    []*Job    // every job, in the order its arrival fires
	arrivalAt   []float64 // arrivals[i].Arrival
}

// arrivalLane returns the workload's jobs in the order their arrivals fire,
// and their arrival times: the engine's order for arrivals scheduled one
// job at a time in basestation-major order, which is a stable sort of that
// concatenation by Arrival. The first run computes it and every later run,
// concurrent or not, shares it.
func (w *Workload) arrivalLane() ([]*Job, []float64) {
	w.arrivalOnce.Do(func() {
		w.arrivals = arrivalOrder(w.Jobs)
		w.arrivalAt = make([]float64, len(w.arrivals))
		for i, j := range w.arrivals {
			w.arrivalAt[i] = j.Arrival
		}
	})
	return w.arrivals, w.arrivalAt
}

// arrivalOrder stable-sorts the basestation-major concatenation of jobs by
// Arrival as a natural merge sort: the concatenation splits into runs of
// nondecreasing arrivals wherever an arrival decreases, and adjacent runs
// merge pairwise, the left run first on ties, until one is left. Each
// basestation's jobs form one run, so a simulator workload costs a merge
// of one run per basestation rather than a sort; a transport wide enough
// to reorder a basestation's arrivals splits its run further, and the
// merge then does the work of a sort.
func arrivalOrder(jobs [][]Job) []*Job {
	n := 0
	for _, bs := range jobs {
		n += len(bs)
	}
	src := make([]*Job, 0, n)
	var ends []int // ends[k] is the end of run k in src
	for bs := range jobs {
		for j := range jobs[bs] {
			job := &jobs[bs][j]
			if k := len(src); k > 0 && job.Arrival < src[k-1].Arrival {
				ends = append(ends, k)
			}
			src = append(src, job)
		}
	}
	ends = append(ends, n)
	dst := make([]*Job, n)
	for len(ends) > 1 {
		// Writing merged[k/2] never overtakes reading ends[k].
		merged := ends[:0]
		lo := 0
		for k := 0; k < len(ends); k += 2 {
			mid, hi := ends[k], ends[k]
			if k+1 < len(ends) {
				hi = ends[k+1]
			}
			mergeArrivals(dst[lo:hi], src[lo:mid], src[mid:hi])
			merged = append(merged, hi)
			lo = hi
		}
		ends = merged
		src, dst = dst, src
	}
	return src
}

// mergeArrivals merges the arrival-sorted runs a and b into dst, taking
// from a on ties so the merge is stable.
func mergeArrivals(dst, a, b []*Job) {
	i, j := 0, 0
	for k := range dst {
		if j == len(b) || i < len(a) && a[i].Arrival <= b[j].Arrival {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
	}
}

// BuildWorkload samples traces, iteration counts, jitter and transport
// latencies for every subframe of every basestation.
func BuildWorkload(cfg WorkloadConfig) (*Workload, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	root := stats.NewRNG(cfg.Seed)
	w := &Workload{Cfg: cfg, Jobs: make([][]Job, cfg.Basestations)}
	for bs := 0; bs < cfg.Basestations; bs++ {
		bsRNG := root.Split()
		ants := cfg.antennasFor(bs)
		var loads trace.Trace
		if cfg.FixedMCS < 0 {
			loads = trace.NewGenerator(cfg.Profiles[bs], bsRNG.Uint64()).Generate(cfg.Subframes)
		}
		jobs := make([]Job, cfg.Subframes)
		for j := 0; j < cfg.Subframes; j++ {
			mcs := cfg.FixedMCS
			if mcs < 0 {
				mcs = trace.MCS(loads[j])
			}
			info, err := lte.MCSTable(mcs)
			if err != nil {
				return nil, err
			}
			d, err := lte.SubcarrierLoad(mcs, cfg.Bandwidth)
			if err != nil {
				return nil, err
			}
			tbs, _, err := lte.TransportBlockSize(mcs, cfg.Bandwidth.PRB)
			if err != nil {
				return nil, err
			}
			c := codeBlocks(tbs)
			l := cfg.IterLaw.Sample(bsRNG, mcs, cfg.SNRdB, cfg.Lm)
			tasks := cfg.Params.Tasks(ants, info.Scheme.Order(), d, l)
			gen := float64(j) * lte.SubframeDurationUS
			rtt2 := cfg.Transport.Sample(bsRNG)
			jobs[j] = Job{
				BS:              bs,
				Index:           j,
				MCS:             mcs,
				L:               l,
				Decodable:       cfg.IterLaw.Decodable(bsRNG, mcs, cfg.SNRdB, cfg.Lm, l),
				Gen:             gen,
				Arrival:         gen + rtt2,
				Deadline:        gen + RxBudgetUS,
				Tasks:           tasks,
				FFTSubtasks:     model.FFTSubtaskCount(ants),
				FFTSubtaskUS:    tasks.FFT / float64(model.FFTSubtaskCount(ants)),
				DecodeSubtasks:  c,
				DecodeSubtaskUS: tasks.Decode / float64(c),
				JitterUS:        cfg.Jitter.Sample(bsRNG),
			}
		}
		w.Jobs[bs] = jobs
	}
	return w, nil
}

// codeBlocks mirrors TS 36.212 segmentation arithmetic without building the
// full segmentation (B = TBS + 24 CRC bits; 6120 payload bits per block).
func codeBlocks(tbs int) int {
	b := tbs + 24
	if b <= 6144 {
		return 1
	}
	return (b + 6119) / 6120
}

// Env is what a scheduler gets to work with.
type Env struct {
	Eng   *platform.Engine
	M     *Metrics
	Cores int
	RNG   *stats.RNG
	// ExpectedRTT2 lets schedulers predict future arrivals (gen times are
	// deterministic; transport is estimated by its expectation).
	ExpectedRTT2 float64
	// SubframesPerBS bounds arrival prediction.
	SubframesPerBS int
	// Trace, when non-nil, receives one event per scheduler decision.
	// Emit sites guard on the nil check so a disabled run builds no events.
	Trace trace.Tracer
}

// emit records one trace event at the current engine time.
func (e *Env) emit(core int, j *Job, kind trace.Kind, detail string) {
	e.emitArg(e.Eng.Now(), core, j, kind, detail, trace.RenderLiteral, 0)
}

// emitAt records one trace event at an explicit time (used for events whose
// effective time is computed rather than the current clock).
func (e *Env) emitAt(t float64, core int, j *Job, kind trace.Kind, detail string) {
	e.emitArg(t, core, j, kind, detail, trace.RenderLiteral, 0)
}

// emitArg records one trace event whose detail embeds the number arg,
// rendered per r only when the detail is read.
func (e *Env) emitArg(t float64, core int, j *Job, kind trace.Kind, detail string, r trace.Render, arg float64) {
	if e.Trace == nil {
		return
	}
	e.Trace.Emit(trace.Event{Time: t, Core: core, BS: j.BS, Subframe: j.Index, Event: kind,
		Render: r, Detail: detail, Arg: arg})
}

// Scheduler is a C-RAN subframe scheduler under simulation.
type Scheduler interface {
	Name() string
	// Attach binds the scheduler to a simulation environment. It is called
	// exactly once, before any arrival.
	Attach(env *Env)
	// OnArrival delivers a subframe to the compute node.
	OnArrival(j *Job)
	// Finalize flushes trailing metrics after the last event.
	Finalize()
}

// Run simulates one workload under one scheduler on the given core count
// and returns the collected metrics.
func Run(w *Workload, s Scheduler, cores int) (*Metrics, error) {
	return RunConfigured(w, s, RunConfig{Cores: cores})
}

// RunWithMetricsSetup is Run with a hook that configures the metrics
// collector (e.g. RecordProcMCS) before any event fires.
func RunWithMetricsSetup(w *Workload, s Scheduler, cores int, setup func(*Metrics)) (*Metrics, error) {
	return RunConfigured(w, s, RunConfig{Cores: cores, Setup: setup})
}

// RunConfig bundles the optional knobs of a simulation run.
type RunConfig struct {
	Cores int
	// Setup configures the metrics collector before any event fires.
	Setup func(*Metrics)
	// Tracer, when non-nil, receives scheduler decision events.
	Tracer trace.Tracer
	// EngineHook, when non-nil, observes the discrete-event engine itself
	// (event scheduling and execution).
	EngineHook platform.Hook
	// Flight, when non-nil, arms the deadline-miss flight recorder for this
	// run (overriding any process-wide ArmFlight recorder): a tap is teed
	// into the event stream and misses/drops freeze dossiers.
	Flight *flight.Recorder
	// FlightReports, when non-nil, supplies per-core utilization for
	// dossiers from an accountant the caller already runs on this stream
	// (harness.TracedRunObserved), so the tap does not keep a second one.
	FlightReports func(endUS float64) []obs.CoreReport
}

// RunConfigured is the fully general run entry point.
func RunConfigured(w *Workload, s Scheduler, rc RunConfig) (*Metrics, error) {
	if rc.Cores < 1 {
		return nil, fmt.Errorf("sched: need at least one core")
	}
	eng := platform.New()
	eng.SetHook(rc.EngineHook)
	m := NewMetrics(s.Name(), w.Cfg.Basestations)
	if rc.Setup != nil {
		rc.Setup(m)
	}
	env := &Env{
		Eng:            eng,
		M:              m,
		Cores:          rc.Cores,
		RNG:            stats.NewRNG(w.Cfg.Seed ^ 0x5eed5eed5eed5eed),
		ExpectedRTT2:   w.Cfg.ExpectedRTT2US,
		SubframesPerBS: w.Cfg.Subframes,
		Trace:          rc.Tracer,
	}
	rec := rc.Flight
	if rec == nil {
		rec = ArmedFlight()
	}
	var tap *flight.Tap
	if rec != nil {
		// Arming the recorder turns event emission on even for otherwise
		// untraced runs: the tap needs the stream to ring. rc.Tracer first in
		// the tee, so a caller-shared accountant sees each event before the
		// tap snapshots its reports.
		tap = flightTap(rec, w, s, rc, env)
		env.Trace = trace.Tee(rc.Tracer, tap)
	}
	s.Attach(env)
	arrivals, at := w.arrivalLane()
	eng.AtSorted(at, func(i int) {
		job := arrivals[i]
		if env.Trace != nil {
			env.emit(-1, job, trace.EvArrive, "")
		}
		s.OnArrival(job)
	})
	eng.Run()
	s.Finalize()
	if tap != nil {
		tap.Close()
	}
	return m, nil
}
