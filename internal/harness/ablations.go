package harness

import (
	"rtopex/internal/sched"
)

func init() {
	register("ablation-alg1", "Algorithm 1 constraints: default vs greedy vs no-wait recovery", ablationAlg1)
	register("ablation-delta", "Migration overhead δ sweep", ablationDelta)
	register("ablation-granularity", "Subtask granularity: FFT/decode migration toggles", ablationGranularity)
	register("ablation-cache", "Global scheduler with and without the cache-thrashing model", ablationCache)
	register("ablation-dispatch", "Global scheduler EDF dispatch overhead sweep", ablationDispatch)
}

// ablationAlg1 compares the shipped RT-OPEX against variants that drop
// Algorithm 1's balancing requirements or the wait-if-cheaper recovery.
func ablationAlg1(o Options) (*Table, error) {
	t := &Table{ID: "ablation-alg1", Title: "RT-OPEX variants, miss rate vs RTT/2",
		Columns: []string{"rtt2_us", "default", "greedy(no R2/R3)", "no-wait recovery", "per-subtask δ"}}
	for _, rtt2 := range []float64{450, 550, 650} {
		w, err := paperWorkload(o, rtt2, -1, 10)
		if err != nil {
			return nil, err
		}
		def, err := sched.Run(w, sched.NewRTOPEX(2), 8)
		if err != nil {
			return nil, err
		}
		greedy := sched.NewRTOPEX(2)
		greedy.GreedyAll = true
		g, err := sched.Run(w, greedy, 8)
		if err != nil {
			return nil, err
		}
		nowait := sched.NewRTOPEX(2)
		nowait.NoWait = true
		nw, err := sched.Run(w, nowait, 8)
		if err != nil {
			return nil, err
		}
		perSub := sched.NewRTOPEX(2)
		perSub.PerSubtaskDelta = true
		ps, err := sched.Run(w, perSub, 8)
		if err != nil {
			return nil, err
		}
		t.AddRow(rtt2, def.MissRate(), g.MissRate(), nw.MissRate(), ps.MissRate())
	}
	t.Notes = append(t.Notes,
		"greedy offloads everything the windows admit, so the local thread idles while the big remote batch finishes — per-task completion is later, and the miss-rate penalty emerges as budgets tighten (high RTT)",
		"no-wait forces the paper-literal recovery (always recompute), costing a little when a batch is microseconds from done")
	return t, nil
}

// ablationDelta sweeps the migration overhead.
func ablationDelta(o Options) (*Table, error) {
	t := &Table{ID: "ablation-delta", Title: "RT-OPEX miss rate vs migration overhead δ (RTT/2 = 600 µs)",
		Columns: []string{"delta_us", "miss_rate", "decode_migrated", "fft_migrated"}}
	w, err := paperWorkload(o, 600, -1, 11)
	if err != nil {
		return nil, err
	}
	for _, delta := range []float64{0, 10, 20, 40, 80, 160} {
		r := sched.NewRTOPEX(2)
		r.DeltaUS = delta
		m, err := sched.Run(w, r, 8)
		if err != nil {
			return nil, err
		}
		t.AddRow(delta, m.MissRate(), m.MigratedDecodeFraction(), m.MigratedFFTFraction())
	}
	t.Notes = append(t.Notes,
		"Algorithm 1 charges δ against each idle window, so larger overheads shrink what fits and migration tapers off gracefully")
	return t, nil
}

// ablationGranularity toggles which task types may migrate.
func ablationGranularity(o Options) (*Table, error) {
	t := &Table{ID: "ablation-granularity", Title: "RT-OPEX task-type migration toggles, miss rate vs RTT/2",
		Columns: []string{"rtt2_us", "both", "decode-only", "fft-only", "none(=partitioned)"}}
	for _, rtt2 := range []float64{450, 550, 650} {
		w, err := paperWorkload(o, rtt2, -1, 12)
		if err != nil {
			return nil, err
		}
		run := func(fft, dec bool) (float64, error) {
			r := sched.NewRTOPEX(2)
			r.MigrateFFT = fft
			r.MigrateDecode = dec
			m, err := sched.Run(w, r, 8)
			if err != nil {
				return 0, err
			}
			return m.MissRate(), nil
		}
		both, err := run(true, true)
		if err != nil {
			return nil, err
		}
		deconly, err := run(false, true)
		if err != nil {
			return nil, err
		}
		fftonly, err := run(true, false)
		if err != nil {
			return nil, err
		}
		none, err := run(false, false)
		if err != nil {
			return nil, err
		}
		t.AddRow(rtt2, both, deconly, fftonly, none)
	}
	t.Notes = append(t.Notes,
		"decode migration carries nearly all of the gain (the decode task dominates Trxproc); with both disabled RT-OPEX degenerates to its underlying partitioned schedule")
	return t, nil
}

// ablationCache isolates the Fig. 19 explanation.
func ablationCache(o Options) (*Table, error) {
	t := &Table{ID: "ablation-cache", Title: "Global scheduler ± cache model (RTT/2 = 550 µs)",
		Columns: []string{"cores", "with_cache", "without_cache"}}
	w, err := paperWorkload(o, 550, -1, 13)
	if err != nil {
		return nil, err
	}
	for _, cores := range []int{8, 16} {
		withC, err := sched.Run(w, sched.NewGlobal(), cores)
		if err != nil {
			return nil, err
		}
		g := sched.NewGlobal()
		g.Cache.Enabled = false
		withoutC, err := sched.Run(w, g, cores)
		if err != nil {
			return nil, err
		}
		t.AddRow(cores, withC.MissRate(), withoutC.MissRate())
	}
	t.Notes = append(t.Notes,
		"the paper attributes global's underperformance to cache thrashing when cores switch basestations; removing the model recovers most of the gap to partitioned")
	return t, nil
}

// ablationDispatch sweeps the global scheduler's per-dispatch overhead.
func ablationDispatch(o Options) (*Table, error) {
	t := &Table{ID: "ablation-dispatch", Title: "Global scheduler vs dispatch overhead (RTT/2 = 550 µs, 8 cores)",
		Columns: []string{"dispatch_us", "miss_rate"}}
	w, err := paperWorkload(o, 550, -1, 14)
	if err != nil {
		return nil, err
	}
	for _, d := range []float64{0, 15, 30, 60, 120} {
		g := sched.NewGlobal()
		g.DispatchOverheadUS = d
		m, err := sched.Run(w, g, 8)
		if err != nil {
			return nil, err
		}
		t.AddRow(d, m.MissRate())
	}
	return t, nil
}

func init() {
	register("ablation-task-migration", "Subtask-level migration vs none", ablationTaskMigration)
}

// ablationTaskMigration isolates the paper's central design choice: the
// granularity of migration. Subtask migration beats the partitioned
// schedule both at the paper's provisioning and when cores are
// under-provisioned.
func ablationTaskMigration(o Options) (*Table, error) {
	t := &Table{ID: "ablation-task-migration", Title: "Subtask migration vs none, miss rate (RTT/2 = 600 µs)",
		Columns: []string{"provisioning", "partitioned", "rt-opex"}}
	w, err := paperWorkload(o, 600, -1, 15)
	if err != nil {
		return nil, err
	}
	for _, row := range []struct {
		name       string
		coresPerBS int
		cores      int
	}{
		{"2 cores/BS on 8 (paper)", 2, 8},
		{"1 core/BS on 8 (under-provisioned + spares)", 1, 8},
	} {
		p, err := sched.Run(w, sched.NewPartitioned(row.coresPerBS), row.cores)
		if err != nil {
			return nil, err
		}
		r, err := sched.Run(w, sched.NewRTOPEX(row.coresPerBS), row.cores)
		if err != nil {
			return nil, err
		}
		t.AddRow(row.name, p.MissRate(), r.MissRate())
	}
	t.Notes = append(t.Notes,
		"with ⌈Tmax⌉ cores per basestation the home core is always free at arrival, so the binding constraint is each job's own deadline, which only a shorter critical path relaxes",
		"subtask migration shortens the critical path itself, which no task-level scheme can")
	return t, nil
}
