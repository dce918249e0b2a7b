// Package realtime runs the actual Go PHY chain under wall-clock deadlines
// — the real-execution counterpart of the discrete-event simulator, and the
// closest analog of the paper's testbed this environment permits.
//
// Three honesty notes, the first two anticipated in DESIGN.md:
//
//   - Go is not a low-latency real-time kernel. The garbage collector and
//     goroutine scheduler inject milliseconds of jitter where the paper's
//     pinned pthreads see tens of microseconds. This package exists partly
//     to measure that gap.
//
//   - The Go PHY (AVX2 FFT, demodulation and turbo kernels) processes a
//     subframe of the ledger's live-partitioned load, a trace-driven MCS
//     mix on 2 antennas, in ≈ 1.1 ms median and ≈ 1.4 ms at p90
//     (realtime.proc_us_p50/p90): its tail reaches the paper's ~1.4 ms
//     rather than staying inside it. Runs therefore use a time-dilation
//     factor (default 2, what the benchmark ledger runs): with Dilation =
//     2, subframes arrive every 2 ms and the processing budget scales
//     identically, so the *scheduling geometry* (utilization, slack ratios,
//     partitioned core mapping) matches the paper's while absolute times
//     stretch uniformly.
//
//   - Go's timers have 1 ms granularity on Linux: the netpoller rounds every
//     timer wait up to whole milliseconds, so a bare time.Sleep releases a
//     subframe up to 1 ms late. The feeder works around it with sleepUntil,
//     which hands the last stretch of each wait to nanosleep(2).
package realtime

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rtopex/internal/bits"
	"rtopex/internal/channel"
	"rtopex/internal/flight"
	"rtopex/internal/lte"
	"rtopex/internal/obs"
	"rtopex/internal/phy"
	"rtopex/internal/stats"
	"rtopex/internal/trace"
)

// Config describes a live run.
type Config struct {
	Basestations int
	CoresPerBS   int // partitioned width (the paper's ⌈Tmax⌉)
	Subframes    int // per basestation
	Antennas     int
	SNRdB        float64
	// MCS fixes the modulation; < 0 draws per subframe from Profiles.
	MCS      int
	Profiles []trace.Profile
	// Dilation stretches the 1 ms subframe clock and the 2 ms budget by
	// the same factor (default 2).
	Dilation float64
	// PHYWorkers is the intra-subframe fan-out: each worker core executes
	// every pipeline stage's subtasks (per antenna-symbol FFTs, per
	// code-block decodes, …) on a phy.Pool of this many workers — the
	// paper's parallel subtask execution, layered on top of the partitioned
	// core map. ≤1 means a 1-worker pool, which runs the stages serially.
	PHYWorkers int
	Seed       uint64
	// Tracer, when non-nil, receives the run's event stream (arrivals,
	// starts, per-stage phases, drops, finishes) with times in microseconds
	// since the feeder epoch. The sink is wrapped with trace.Locked because
	// worker threads emit concurrently; a nil Tracer costs nothing — every
	// emit site guards on a single nil check.
	Tracer trace.Tracer
	// Obs, when non-nil, receives live progress while the run executes:
	// subframe/decode/miss/drop counters and the per-subframe processing-time
	// histogram, updated as workers finish — the series `livebench -http`
	// exposes mid-run.
	Obs *obs.Registry
	// Flight, when non-nil, arms the deadline-miss flight recorder: a tap
	// joins the (locked) event stream, and late finishes and queue-full
	// drops freeze miss dossiers. Works with or without Tracer.
	Flight *flight.Recorder
}

func (c Config) dilation() float64 {
	if c.Dilation <= 0 {
		return 2
	}
	return c.Dilation
}

func (c Config) validate() error {
	if c.Basestations < 1 || c.Subframes < 1 {
		return fmt.Errorf("realtime: need ≥1 basestation and subframe")
	}
	if c.CoresPerBS < 1 {
		return fmt.Errorf("realtime: need ≥1 core per basestation")
	}
	if c.Antennas < 1 {
		return fmt.Errorf("realtime: need ≥1 antenna")
	}
	if c.MCS > lte.MaxMCS {
		return fmt.Errorf("realtime: MCS %d out of range", c.MCS)
	}
	if c.MCS < 0 && len(c.Profiles) < c.Basestations {
		return fmt.Errorf("realtime: %d profiles for %d basestations", len(c.Profiles), c.Basestations)
	}
	return nil
}

// Stats aggregates a live run.
type Stats struct {
	Subframes  int
	Decoded    int
	DecodeFail int // CRC failures within the deadline (channel, not schedule)
	Missed     int // completed after the deadline, decoded or not
	Dropped    int // core still busy when the next subframe arrived
	// ProcUS are per-subframe wall-clock processing times in µs.
	ProcUS []float64
	// WaitUS are the matching release → start times in µs: how late the
	// feeder woke plus how long the subframe sat in its core's queue.
	WaitUS []float64
	// LateUS are the tardiness values of missed subframes in µs.
	LateUS []float64
}

// MissRate is the deadline-miss fraction (missed + dropped).
func (s *Stats) MissRate() float64 {
	if s.Subframes == 0 {
		return 0
	}
	return float64(s.Missed+s.Dropped) / float64(s.Subframes)
}

// prebuilt is one encoded-and-channel-distorted subframe ready to decode.
type prebuilt struct {
	iq  [][]complex128
	n0  float64
	mcs int
}

// job is one released subframe on its way to a core.
type job struct {
	bs, idx int
	release time.Time
}

// Run executes the live partitioned schedule: CoresPerBS worker goroutines
// per basestation, fed every dilated millisecond in the paper's round-robin
// core mapping. Only the feeder (the calling goroutine) is locked to an OS
// thread, whose timer slack it sets to 1 ns for the run and restores after;
// the workers are ordinary goroutines the Go scheduler places.
func Run(cfg Config) (*Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	dil := cfg.dilation()
	period := time.Duration(dil * float64(time.Millisecond))
	budget := 2 * period // the 2 ms Rx budget of §2.4, dilated

	// Pre-encode subframe pools per basestation (and per MCS draw).
	r := stats.NewRNG(cfg.Seed)
	pools := make([][]prebuilt, cfg.Basestations)
	mcsAt := make([][]int, cfg.Basestations)
	for bs := 0; bs < cfg.Basestations; bs++ {
		var loads trace.Trace
		if cfg.MCS < 0 {
			loads = trace.NewGenerator(cfg.Profiles[bs], r.Uint64()).Generate(cfg.Subframes)
		}
		mcsAt[bs] = make([]int, cfg.Subframes)
		seen := map[int]int{} // mcs -> pool index
		for j := 0; j < cfg.Subframes; j++ {
			mcs := cfg.MCS
			if mcs < 0 {
				mcs = trace.MCS(loads[j])
			}
			mcsAt[bs][j] = mcs
			if _, ok := seen[mcs]; !ok {
				pb, err := buildSubframe(r, mcs, cfg.Antennas, cfg.SNRdB)
				if err != nil {
					return nil, err
				}
				seen[mcs] = len(pools[bs])
				pools[bs] = append(pools[bs], pb)
			}
		}
		// Remap subframe index -> pool entry.
		for j := 0; j < cfg.Subframes; j++ {
			mcsAt[bs][j] = seen[mcsAt[bs][j]]
		}
	}

	nCores := cfg.Basestations * cfg.CoresPerBS
	queues := make([]chan job, nCores)
	for i := range queues {
		queues[i] = make(chan job, 4)
	}

	tr := cfg.Tracer
	// epoch anchors every event time; the feeder reuses it as its clock so
	// traced times and release times share one origin.
	epoch := time.Now()
	var tap *flight.Tap
	if cfg.Flight != nil {
		budgetUS := budget.Seconds() * 1e6
		periodUS := period.Seconds() * 1e6
		tap = cfg.Flight.NewTap(flight.TapConfig{
			Label:    "realtime",
			BudgetUS: budgetUS,
			// The live schedule's release clock is exact: subframe j of every
			// basestation is released at j·period and must finish within the
			// dilated 2 ms budget.
			Job: func(bs, sf int) (float64, float64, bool) {
				arr := float64(sf) * periodUS
				return arr, arr + budgetUS, true
			},
			State: func() flight.SchedState {
				st := flight.SchedState{
					Scheduler:   "realtime",
					NowUS:       time.Since(epoch).Seconds() * 1e6,
					QueueDepths: make([]int, len(queues)),
				}
				for i, q := range queues {
					st.QueueDepths[i] = len(q)
				}
				return st
			},
		})
		// The tap joins the stream inside the Locked wrapper: worker
		// threads emit concurrently, and the tap — unsynchronized like
		// every other sink — relies on that lock for serialization.
		tr = trace.Tee(tr, tap)
	}
	if tr != nil {
		tr = trace.Locked(tr)
	}
	emit := func(at time.Time, core, bs, sf int, kind trace.Kind, detail string) {
		tr.Emit(trace.Event{
			Time: at.Sub(epoch).Seconds() * 1e6,
			Core: core, BS: bs, Subframe: sf, Event: kind, Detail: detail,
		})
	}

	st := &Stats{}
	lo := newLiveObs(cfg.Obs)
	var mu sync.Mutex

	// account settles one processed subframe against its deadline; every
	// worker core classifies its outcomes through it. Each subframe gets
	// exactly one outcome, and late takes precedence over a decode failure,
	// as in sched.Metrics.
	account := func(core, bs, idx int, release, start, done time.Time, res phy.Result, perr error) {
		outcome := "ack"
		procUS := done.Sub(start).Seconds() * 1e6
		lateUS := 0.0
		mu.Lock()
		st.Subframes++
		st.ProcUS = append(st.ProcUS, procUS)
		st.WaitUS = append(st.WaitUS, start.Sub(release).Seconds()*1e6)
		deadline := release.Add(budget)
		switch {
		case done.After(deadline):
			lateUS = done.Sub(deadline).Seconds() * 1e6
			st.Missed++
			st.LateUS = append(st.LateUS, lateUS)
			outcome = "late"
		case perr != nil || !res.OK:
			st.DecodeFail++
			outcome = "decodefail"
		default:
			st.Decoded++
		}
		mu.Unlock()
		lo.processed(outcome, procUS, lateUS)
		if perr == nil {
			lo.decodeIterations(res.BlockIterations)
		}
		if tr != nil {
			emit(done, core, bs, idx, trace.EvFinish, outcome)
		}
	}
	// drop records a subframe that never got processing: the feeder found
	// the core's queue full.
	drop := func(at time.Time, core, bs, idx int, why string) {
		mu.Lock()
		st.Subframes++
		st.Dropped++
		mu.Unlock()
		lo.drop()
		if tr != nil {
			emit(at, core, bs, idx, trace.EvDrop, why)
		}
	}

	var wg sync.WaitGroup
	for core := 0; core < nCores; core++ {
		core := core
		bs := core / cfg.CoresPerBS
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Intra-subframe fan-out: one phy.Pool per worker core, so a
			// core's stage subtasks spread over PHYWorkers goroutines (one
			// worker runs them inline on this goroutine).
			pool := phy.NewPool(max(cfg.PHYWorkers, 1))
			defer pool.Close()
			// The core owns one receiver per MCS slot of its basestation,
			// built on the slot's first subframe, so its working set stays
			// warm (§4.4) and nothing is shared between cores.
			rxs := make([]*phy.Receiver, len(pools[bs]))
			for j := range queues[core] {
				slot := mcsAt[bs][j.idx]
				pb := pools[bs][slot]
				// A NewReceiver error is accounted like a Pipeline error, so
				// the subframe is still counted, traced and published.
				var err error
				if rxs[slot] == nil {
					rxs[slot], err = phy.NewReceiver(phyConfig(pb.mcs, cfg.Antennas))
				}
				rx := rxs[slot]
				start := time.Now()
				if tr != nil {
					emit(start, core, bs, j.idx, trace.EvStart, "")
				}
				// Walk the pipeline stage by stage: each boundary gets an
				// EvPhase when traced and a per-stage histogram sample, and
				// each stage's subtasks fan out across the pool.
				var stages []phy.Stage
				if err == nil {
					stages, err = rx.Pipeline(pb.iq, pb.n0)
				}
				for _, stg := range stages {
					stageStart := time.Now()
					if tr != nil {
						emit(stageStart, core, bs, j.idx, trace.EvPhase, string(stg.Name))
					}
					pool.Run(stg.Subtasks)
					lo.stage(stg.Name, time.Since(stageStart).Seconds()*1e6)
				}
				var res phy.Result
				if err == nil {
					res = rx.Result()
				}
				done := time.Now()
				account(core, bs, j.idx, j.release, start, done, res, err)
			}
		}()
	}

	// Feeder: the transport component, releasing one subframe per
	// basestation every dilated millisecond.
	runtime.LockOSThread()
	restoreSlack := tightenTimerSlack()
	for j := 0; j < cfg.Subframes; j++ {
		release := epoch.Add(time.Duration(j) * period)
		sleepUntil(release)
		for bs := 0; bs < cfg.Basestations; bs++ {
			core := bs*cfg.CoresPerBS + j%cfg.CoresPerBS
			if tr != nil {
				emit(release, -1, bs, j, trace.EvArrive, "")
			}
			select {
			case queues[core] <- job{bs: bs, idx: j, release: release}:
			default:
				// Core's queue full: the previous subframe overran its
				// whole window — a drop, as in the paper's enforcement.
				drop(release, core, bs, j, "queue-full")
			}
		}
	}
	restoreSlack()
	runtime.UnlockOSThread()
	for i := range queues {
		close(queues[i])
	}
	wg.Wait()
	if tap != nil {
		tap.Close()
	}
	return st, nil
}

func phyConfig(mcs, antennas int) phy.Config {
	return phy.Config{
		Bandwidth: lte.BW10MHz,
		MCS:       mcs,
		Antennas:  antennas,
		RNTI:      0x3003,
		CellID:    17,
	}
}

// buildSubframe encodes one random transport block and passes it through
// the AWGN channel.
func buildSubframe(r *stats.RNG, mcs, antennas int, snrDB float64) (prebuilt, error) {
	tx, err := phy.NewTransmitter(phyConfig(mcs, antennas))
	if err != nil {
		return prebuilt{}, err
	}
	payload := make([]byte, tx.TBS())
	bits.RandomBits(payload, r.Uint64)
	wave, err := tx.Transmit(payload)
	if err != nil {
		return prebuilt{}, err
	}
	ch, err := channel.New(snrDB, antennas, r.Uint64())
	if err != nil {
		return prebuilt{}, err
	}
	iq, _ := ch.Apply(wave)
	return prebuilt{iq: iq, n0: ch.N0(), mcs: mcs}, nil
}
