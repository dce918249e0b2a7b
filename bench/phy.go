package main

import (
	"bytes"
	"runtime"
	"time"

	"rtopex/internal/bits"
	"rtopex/internal/channel"
	"rtopex/internal/fft"
	"rtopex/internal/lte"
	"rtopex/internal/modulation"
	"rtopex/internal/phy"
	"rtopex/internal/stats"
)

// phyParams is one closed-loop PHY workload: a single thread calls
// Receiver.Process over a rotating pool of distinct pre-encoded subframes.
type phyParams struct {
	name     string
	mcs      int
	antennas int
	snrDB    float64
	pool     int // distinct subframes rotated through
	warm     int // untimed Process calls that end set-up
	setups   int // set-ups per run; setup_s is their median
}

var (
	// phyDecode sits on the waterfall edge: every code block needs turbo
	// iterations, so the decoder dominates.
	phyDecode = phyParams{name: "phy-decode", mcs: 27, antennas: 2, snrDB: 15, pool: 16, warm: 50, setups: 7}
	// phyFrontend is one code block that the raw-systematic pre-check
	// accepts: FFT and demodulation dominate, the decoder hardly runs.
	phyFrontend = phyParams{name: "phy-frontend", mcs: 5, antennas: 4, snrDB: 30, pool: 16, warm: 50, setups: 7}
)

// phyRig is a warmed receiver plus the subframes it decodes.
type phyRig struct {
	rx       *phy.Receiver
	iq       [][][]complex128 // [pool][antenna][sample]
	payloads [][]byte
	n0       float64
}

func (p phyParams) config() phy.Config {
	return phy.Config{
		Bandwidth: lte.BW10MHz, MCS: p.mcs, Antennas: p.antennas,
		RNTI: 1, CellID: 1, MaxIterations: 4,
	}
}

// build encodes the pool from seed, passes it through the channel, builds
// the receiver and warms it. This is the whole set-up a user of the PHY pays
// before the first timed subframe.
func (p phyParams) build(seed uint64) (*phyRig, error) {
	cfg := p.config()
	tx, err := phy.NewTransmitter(cfg)
	if err != nil {
		return nil, err
	}
	r := stats.NewRNG(seed)
	ch, err := channel.New(p.snrDB, p.antennas, r.Uint64())
	if err != nil {
		return nil, err
	}
	rig := &phyRig{n0: ch.N0()}
	for i := 0; i < p.pool; i++ {
		payload := make([]byte, tx.TBS())
		bits.RandomBits(payload, r.Uint64)
		wave, err := tx.Transmit(payload)
		if err != nil {
			return nil, err
		}
		iq, _ := ch.Apply(wave)
		rig.payloads = append(rig.payloads, payload)
		rig.iq = append(rig.iq, iq)
	}
	if rig.rx, err = phy.NewReceiver(cfg); err != nil {
		return nil, err
	}
	for i := 0; i < p.warm; i++ {
		if _, err := rig.rx.Process(rig.iq[i%p.pool], rig.n0); err != nil {
			return nil, err
		}
	}
	return rig, nil
}

// good reports whether a decode is correct: CRC passed and the payload is
// bit-for-bit the one that was sent.
func (g *phyRig) good(k int, res phy.Result, err error) bool {
	return err == nil && res.OK && bytes.Equal(res.Payload, g.payloads[k])
}

// phyBatch is how many consecutive subframes one throughput sample spans.
const phyBatch = 64

// serial is the end-to-end loop: Process, serially, for d. It returns the
// per-call times in µs, the end time of every call, and the failure count.
func (g *phyRig) serial(d time.Duration) (callUS []float64, ends []time.Duration, failed int) {
	n := int(d.Seconds()*4000) + 64
	callUS = make([]float64, 0, n)
	ends = make([]time.Duration, 0, n)
	start := time.Now()
	for i := 0; ; i++ {
		k := i % len(g.iq)
		t0 := time.Now()
		res, err := g.rx.Process(g.iq[k], g.n0)
		t1 := time.Now()
		callUS = append(callUS, us(t1.Sub(t0)))
		ends = append(ends, t1.Sub(start))
		if !g.good(k, res, err) {
			failed++
		}
		if t1.Sub(start) >= d {
			return callUS, ends, failed
		}
	}
}

// batchRates turns call end times into subframes/s per batch of phyBatch
// calls (verification between calls included); the run's throughput is
// their median, so one VM stall costs one sample, not the figure.
func batchRates(ends []time.Duration) []float64 {
	var rates []float64
	for i := phyBatch; i < len(ends); i += phyBatch {
		rates = append(rates, phyBatch/(ends[i]-ends[i-phyBatch]).Seconds())
	}
	if len(rates) == 0 && len(ends) > 0 {
		rates = append(rates, float64(len(ends))/ends[len(ends)-1].Seconds())
	}
	return rates
}

func (p phyParams) run(e *env) (*outcome, error) {
	var rig *phyRig
	setups := make([]float64, p.setups)
	for i := range setups {
		rig = nil
		settle()
		t0 := time.Now()
		var err error
		if rig, err = p.build(e.seed); err != nil {
			return nil, err
		}
		setups[i] = time.Since(t0).Seconds()
	}
	out := newOutcome()
	out.set("setup_s", median(setups))

	if e.traced {
		return out, p.traced(e, rig, out)
	}
	cpu0 := cpuTime()
	callUS, ends, failed := rig.serial(e.duration(1))
	cpu := cpuTime() - cpu0
	out.ops, out.failed = len(callUS), failed
	s := sorted(callUS)
	out.set("ops_per_s", median(batchRates(ends)))
	out.set("op_us_p50", quantile(s, 0.5))
	out.set("op_us_p90", quantile(s, 0.9))
	out.set("cpu_us_per_op", us(cpu)/float64(len(callUS)))
	out.note("closed loop, 1 thread: %d subframes, op_us_p99 %.1f µs (%d samples beyond)",
		len(s), quantile(s, 0.99), len(s)/100)
	return out, nil
}

// traced is the per-layer run: an untraced slice for the base figure, the
// same subframes walked stage by stage through Receiver.Pipeline with one
// span per stage, and the layer calls below the stages timed on their own.
func (p phyParams) traced(e *env, rig *phyRig, out *outcome) error {
	baseUS, _, failed := rig.serial(e.duration(0.3))
	base := median(baseUS)
	out.ops, out.failed = len(baseUS), failed

	stageUS := map[phy.TaskName][]float64{}
	var subframeUS, selfUS []float64
	var blocks, iterations float64
	d := e.duration(0.4)
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		k := i % len(rig.iq)
		t0 := time.Now()
		stages, err := rig.rx.Pipeline(rig.iq[k], rig.n0)
		if err != nil {
			return err
		}
		root := e.spans.add("phy.subframe", i, -1, t0, t0) // finished after its stages
		var covered time.Duration
		for _, st := range stages {
			s0 := time.Now()
			for _, sub := range st.Subtasks {
				sub()
			}
			s1 := time.Now()
			e.spans.add("phy."+string(st.Name), i, root, s0, s1)
			stageUS[st.Name] = append(stageUS[st.Name], us(s1.Sub(s0)))
			covered += s1.Sub(s0)
		}
		res := rig.rx.Result()
		t1 := time.Now()
		e.spans.finish(root, t1)
		subframeUS = append(subframeUS, us(t1.Sub(t0)))
		selfUS = append(selfUS, us(t1.Sub(t0)-covered))
		blocks += float64(len(res.BlockIterations))
		for _, it := range res.BlockIterations {
			iterations += float64(it)
		}
		out.ops++
		if !rig.good(k, res, nil) {
			out.failed++
		}
	}
	n := float64(len(subframeUS))
	fftUS, chest := median(stageUS[phy.TaskFFT]), median(stageUS[phy.TaskChEst])
	demod, decode := median(stageUS[phy.TaskDemod]), median(stageUS[phy.TaskDecode])
	out.set("phy.fft_us_p50", fftUS)
	out.set("phy.chest_us_p50", chest)
	out.set("phy.demod_us_p50", demod)
	out.set("phy.decode_us_p50", decode)
	out.set("phy.stage_overhead_us_p50", median(selfUS))
	out.set("turbo.blocks_per_subframe", blocks/n)
	out.set("turbo.iterations_per_block", ratio(iterations, blocks))
	out.set("turbo.decode_us_per_block_iteration", ratio(decode, iterations/n))
	out.set("bench.trace_overhead_ratio", ratio(median(subframeUS), base))
	stageSum := fftUS + chest + demod + decode
	out.note("stage shares of the subframe: fft %.0f%%, chest+demod %.0f%%, decode %.0f%%",
		100*fftUS/stageSum, 100*(chest+demod)/stageSum, 100*decode/stageSum)

	// Steady-state allocations of Process (the fast path promises none).
	const allocCalls = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocCalls; i++ {
		if _, err := rig.rx.Process(rig.iq[i%len(rig.iq)], rig.n0); err != nil {
			return err
		}
	}
	runtime.ReadMemStats(&m1)
	out.set("phy.allocs_per_subframe", float64(m1.Mallocs-m0.Mallocs)/allocCalls)

	// Intra-subframe parallelism: the same subframes through a 2-worker Pool.
	pool := phy.NewPool(2)
	var poolUS []float64
	d = e.duration(0.15)
	start = time.Now()
	for i := 0; time.Since(start) < d; i++ {
		k := i % len(rig.iq)
		t0 := time.Now()
		res, err := pool.ProcessParallel(rig.rx, rig.iq[k], rig.n0)
		t1 := time.Now()
		e.spans.add("phy.pool2_subframe", out.ops, -1, t0, t1)
		poolUS = append(poolUS, us(t1.Sub(t0)))
		out.ops++
		if !rig.good(k, res, err) {
			out.failed++
		}
	}
	out.set("phy.pool2_subframe_us_p50", median(poolUS))
	out.set("phy.pool2_speedup", ratio(base, median(poolUS)))
	pool.Close()

	microLayers(out)
	return nil
}

// microLayers times the calls the PHY stages are made of, at the sizes a
// 10 MHz subframe uses: the per-symbol 1024-point FFT, the 600-point IDFT
// that undoes SC-FDMA precoding of 50 PRB, and soft demapping of one
// 600-subcarrier symbol.
func microLayers(out *outcome) {
	const reps = 2000
	r := stats.NewRNG(1)
	randomize := func(x []complex128) {
		for i := range x {
			x[i] = complex(r.NormFloat64(), r.NormFloat64())
		}
	}

	plan := fft.MustPlan(lte.BW10MHz.FFTSize)
	src := make([]complex128, plan.Size())
	randomize(src)
	x := make([]complex128, plan.Size())
	fwd := make([]float64, reps)
	for i := range fwd {
		copy(x, src) // Forward is in place; refill outside the timed call
		t0 := time.Now()
		plan.Forward(x)
		fwd[i] = float64(time.Since(t0))
	}
	out.set("fft.forward1024_ns", median(fwd))

	nsc := lte.BW10MHz.Subcarriers()
	in := make([]complex128, nsc)
	randomize(in)
	dst := make([]complex128, nsc)
	work := make([]complex128, fft.WorkLen(nsc))
	out.set("fft.idft600_ns", float64(timeMedian(reps, func() { fft.IDFTInto(dst, in, work) })))

	for _, d := range []struct {
		metric string
		scheme modulation.Scheme
	}{
		{"modulation.demap64_ns_per_symbol", modulation.QAM64},
		{"modulation.demap_qpsk_ns_per_symbol", modulation.QPSK},
	} {
		llr := make([]float64, nsc*d.scheme.Order())
		t := timeMedian(reps, func() { modulation.DemapInto(llr, d.scheme, in, 0.1) })
		out.set(d.metric, float64(t)/float64(nsc))
	}
}

func init() {
	for _, p := range []phyParams{phyDecode, phyFrontend} {
		p := p
		register(p.name, func(e *env) (*outcome, error) { return p.run(e) })
	}
}
